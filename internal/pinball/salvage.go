package pinball

import (
	"fmt"
	"os"
)

// Salvage recovers a usable pinball from a damaged file. Where Decode
// must reject a torn or bit-flipped file outright, Salvage keeps the
// longest prefix of CRC-valid, decodable frames and truncates it to the
// last divergence checkpoint its surviving schedule chunks cover — an
// interrupted recording and a torn Save alike. The result replays
// bit-identically to the original execution up to that checkpoint, and
// slices like any other pinball. When the final meta survived and
// proves the schedule complete (a file torn inside its checkpoint chunk,
// which follows the schedule, or inside its commit marker), the region
// is recovered whole; it is unverified when no checkpoint survived. An interrupted ring journal is
// rebuilt as a fully evicted pinball instead (salvageRing).
//
// A prefix that lost the meta, the initial state or every schedule
// chunk, or that has neither a covered checkpoint nor a complete
// schedule, fails with ErrUnsalvageable, as does a file whose frames
// disagree with its manifest (a frame dropped or duplicated, which no
// tear produces). The report describes what was kept and where the
// damage sits, whether salvage succeeded or not.

// SalvageReport describes a salvage attempt.
type SalvageReport struct {
	Path    string `json:"path,omitempty"`
	Version byte   `json:"version"`

	// Intact is true when the file decoded cleanly and was returned
	// unchanged (nothing to salvage).
	Intact bool `json:"intact"`
	// Committed reports whether a journal had its commit frame.
	Committed bool `json:"committed,omitempty"`

	BytesTotal int64 `json:"bytes_total"`
	BytesKept  int64 `json:"bytes_kept"`

	// DamageOffset is the absolute byte offset of the first damaged
	// frame (-1 when the framing itself was fine, e.g. an uncommitted but
	// untorn journal). DamageCause is the typed scan error's text.
	DamageOffset int64  `json:"damage_offset"`
	DamageCause  string `json:"damage_cause,omitempty"`

	SectionsKept int `json:"sections_kept"`

	// OriginalInstrs is the recorded region length when known (0 when the
	// final meta did not survive: an interrupted recording).
	// SalvagedInstrs is the region length of the recovered pinball.
	OriginalInstrs int64 `json:"original_instrs,omitempty"`
	SalvagedInstrs int64 `json:"salvaged_instrs"`

	// Truncated is set when the recovery anchored at a divergence
	// checkpoint; CheckpointStep is that checkpoint's global region step.
	Truncated      bool  `json:"truncated"`
	CheckpointStep int64 `json:"checkpoint_step,omitempty"`
	// Unverified is set when the region was recovered whole but none of
	// its divergence checkpoints survived: it replays, but replay cannot
	// be validated window by window.
	Unverified bool `json:"unverified,omitempty"`
	// Evicted counts the sealed flight-recorder windows recovered as
	// evictions from an interrupted ring journal: their content was still
	// in the recorder's memory when the recording died, so replay must
	// re-derive every one of them by gap bridging.
	Evicted int `json:"evicted,omitempty"`
}

// Summary renders the report as a short human-readable block.
func (r *SalvageReport) Summary() string {
	if r.Intact {
		return fmt.Sprintf("intact pinball (format version %d, %d bytes): nothing to repair", r.Version, r.BytesTotal)
	}
	s := fmt.Sprintf("kept %d of %d bytes (%d sections)", r.BytesKept, r.BytesTotal, r.SectionsKept)
	if r.DamageOffset >= 0 {
		s += fmt.Sprintf("\nfirst damage at byte offset %d: %s", r.DamageOffset, r.DamageCause)
	} else if r.DamageCause != "" {
		s += "\n" + r.DamageCause
	}
	if r.Truncated {
		s += fmt.Sprintf("\ntruncated to the last intact divergence checkpoint: %d instructions (region step %d)",
			r.SalvagedInstrs, r.CheckpointStep)
	} else {
		s += fmt.Sprintf("\nregion recovered whole: %d instructions", r.SalvagedInstrs)
	}
	if r.Unverified {
		s += "\ndivergence checkpoints were lost: replay of the salvaged pinball is unverified"
	}
	if r.Evicted > 0 {
		s += fmt.Sprintf("\nring journal: %d sealed windows recovered as evictions; replay will re-derive them by gap bridging", r.Evicted)
	}
	return s
}

// Salvage reads the file at path and recovers what it can. On success
// the returned pinball passes Validate and is replayable; the report is
// non-nil even on failure, so tools can show diagnostics either way.
func Salvage(path string) (*Pinball, *SalvageReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &SalvageReport{Path: path, DamageOffset: -1, DamageCause: err.Error()},
			fmt.Errorf("pinball: %w", err)
	}
	p, rep, err := SalvageBytes(data)
	rep.Path = path
	if err != nil {
		return nil, rep, fmt.Errorf("pinball: salvage %s: %w", path, err)
	}
	return p, rep, nil
}

// SalvageBytes is Salvage over in-memory file bytes.
func SalvageBytes(data []byte) (*Pinball, *SalvageReport, error) {
	rep := &SalvageReport{BytesTotal: int64(len(data)), DamageOffset: -1}

	// A file that loads cleanly needs no repair.
	if p, err := Decode(data); err == nil {
		rep.Intact = true
		rep.Version = data[len(fileMagic)]
		rep.BytesKept = rep.BytesTotal
		rep.OriginalInstrs, rep.SalvagedInstrs = p.RegionInstrs, p.RegionInstrs
		return p, rep, nil
	}

	if err := checkHeader(data); err != nil {
		rep.DamageCause = err.Error()
		return nil, rep, fmt.Errorf("%w: %v", ErrUnsalvageable, err)
	}
	rep.Version = formatVersion
	return salvageJournal(data, rep)
}

// salvageJournal recovers a torn or interrupted file: the valid frame
// prefix is truncated to the last divergence checkpoint its schedule
// chunks cover.
func salvageJournal(data []byte, rep *SalvageReport) (*Pinball, *SalvageReport, error) {
	parts, scanErr := readFrames(data)
	rep.BytesKept = parts.end
	rep.SectionsKept = parts.frames
	rep.Committed = parts.committed
	if scanErr != nil {
		rep.DamageOffset, rep.DamageCause = parts.end, scanErr.Error()
	} else if !parts.committed {
		rep.DamageCause = "journal has no commit frame: the recording was interrupted"
	}

	p := parts.p
	switch {
	case parts.holed:
		return nil, rep, fmt.Errorf("%w: the frames disagree with the manifest, so a frame was dropped or duplicated", ErrUnsalvageable)
	case !parts.hasMeta:
		return nil, rep, fmt.Errorf("%w: the meta frame did not survive", ErrUnsalvageable)
	case p.State == nil:
		return nil, rep, fmt.Errorf("%w: the initial state frame did not survive", ErrUnsalvageable)
	}
	if parts.ringMode && !(parts.committed && scanErr == nil) {
		// A ring journal defers retained window content to commit time, so
		// an interrupted one has no schedule chunks to truncate — instead
		// every sealed window becomes a verifiable eviction.
		return salvageRing(parts, rep)
	}
	if len(p.Quanta) == 0 {
		return nil, rep, fmt.Errorf("%w: no schedule chunk survived", ErrUnsalvageable)
	}
	p.applyMeta(parts.meta)
	rep.OriginalInstrs = parts.meta.RegionInstrs // 0 unless the final meta survived

	if parts.committed && scanErr == nil {
		// Clean committed journal (Decode would have accepted it; only
		// reachable if validation failed, which truncation cannot fix).
		if err := p.Validate(); err != nil {
			return nil, rep, fmt.Errorf("%w: committed journal is inconsistent: %v", ErrUnsalvageable, err)
		}
		rep.SalvagedInstrs = p.RegionInstrs
		return p, rep, nil
	}

	// The file was cut short. Only a final meta has a manifest, and every
	// event chunk precedes the schedule, so a final meta plus a complete
	// schedule means the region survived whole (a file torn inside its
	// checkpoint chunk or its commit marker): keep it, unverified only
	// when no checkpoint survived. Otherwise anchor at the last
	// checkpoint the surviving schedule covers; every event at or before
	// that step survived too.
	scheduled := p.TotalQuantumInstrs()
	anchor := int64(-1)
	for _, cp := range p.Checkpoints {
		if cp.Step <= scheduled && cp.Step > anchor {
			anchor = cp.Step
		}
	}
	switch {
	case parts.meta.Sections != nil && scheduled == p.RegionInstrs:
		rep.Unverified = len(p.Checkpoints) == 0
	case anchor > 0:
		p.truncateToStep(anchor)
		rep.Truncated, rep.CheckpointStep = true, anchor
	default:
		return nil, rep, fmt.Errorf("%w: no intact divergence checkpoint to anchor a truncation (recording covered %d scheduled instructions)",
			ErrUnsalvageable, scheduled)
	}
	rep.SalvagedInstrs = p.RegionInstrs
	if err := p.Validate(); err != nil {
		return nil, rep, fmt.Errorf("%w: salvaged content is inconsistent: %v", ErrUnsalvageable, err)
	}
	return p, rep, nil
}

// salvageRing reconstructs an interrupted ring-mode journal as a fully
// evicted pinball: initial state, recipe, every divergence checkpoint and
// every sealed window's span+hash survive on disk, while all window
// content (still in the recorder's in-memory ring when the recording
// died) is re-derived at replay time by gap bridging and verified against
// the retained hashes.
func salvageRing(parts *journalParts, rep *SalvageReport) (*Pinball, *SalvageReport, error) {
	p := parts.p
	if len(parts.windows) == 0 {
		return nil, rep, fmt.Errorf("%w: ring journal has no sealed window to anchor a recovery", ErrUnsalvageable)
	}
	p.applyMeta(parts.meta)
	rep.OriginalInstrs = parts.meta.RegionInstrs // 0 unless the final meta survived

	var end int64
	evs := make([]Eviction, 0, len(parts.windows))
	for _, w := range parts.windows {
		evs = append(evs, Eviction{ID: w.ID, FromStep: w.FromStep, ToStep: w.ToStep, Hash: w.Hash})
		if w.ToStep > end {
			end = w.ToStep
		}
	}
	// Drop any content frames that did survive (a torn commit can leave a
	// partial content tail): without the eviction manifest there is no
	// proof of which windows they cover, and bridging re-derives them
	// anyway.
	p.Quanta, p.Syscalls, p.OrderEdges = nil, nil, nil
	p.Evictions = evs
	p.RegionInstrs, p.MainInstrs = end, 0
	p.dropPast(end)

	rep.Truncated = true
	rep.CheckpointStep = end
	rep.SalvagedInstrs = end
	rep.Evicted = len(evs)
	if err := p.Validate(); err != nil {
		return nil, rep, fmt.Errorf("%w: salvaged ring content is inconsistent: %v", ErrUnsalvageable, err)
	}
	return p, rep, nil
}

// truncateToStep cuts the pinball's region to exactly step instructions:
// the schedule is trimmed (splitting the quantum the boundary lands in),
// region accounting recomputed, and checkpoints/injections past the
// boundary dropped. Trailing syscall results and order edges are
// unreachable by the shortened replay and kept harmlessly.
func (p *Pinball) truncateToStep(step int64) {
	var total int64
	trimmed := p.Quanta[:0:0]
	for _, q := range p.Quanta {
		if total+q.Count >= step {
			if left := step - total; left > 0 {
				q.Count = left
				trimmed = append(trimmed, q)
			}
			total = step
			break
		}
		total += q.Count
		trimmed = append(trimmed, q)
	}
	p.Quanta = trimmed
	p.RegionInstrs = step
	var main int64
	for _, q := range p.Quanta {
		if q.Tid == 0 {
			main += q.Count
		}
	}
	p.MainInstrs = main
	p.dropPast(step)
}

// dropPast drops the checkpoints and injections past step and marks the
// pinball salvaged. The recorded failure sat at the region's lost end,
// so it is cleared.
func (p *Pinball) dropPast(step int64) {
	cps := p.Checkpoints[:0:0]
	for _, cp := range p.Checkpoints {
		if cp.Step <= step {
			cps = append(cps, cp)
		}
	}
	p.Checkpoints = cps

	inj := p.Injections[:0:0]
	for _, in := range p.Injections {
		if in.AtStep <= step {
			inj = append(inj, in)
		}
	}
	p.Injections = inj

	p.EndReason = "salvaged"
	p.Failure = nil
}
