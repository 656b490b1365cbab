package pinball

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/vm"
)

// Incremental journal. A pinball written with Save only exists once
// recording has finished; a crash mid-record would lose the whole
// capture. The journal inverts that: the file starts with the frames
// known at region entry (provisional meta, initial machine state) and
// then grows by checksummed chunk frames as the recording runs, each
// flush covering a window of the region. Commit appends the final meta,
// whose manifest lists every frame written, and the empty commit marker
// that makes the file complete. The result has the same layout as a
// Save (format.go), so one reader and one salvage path serve both.
//
// Because a flush writes its quanta chunk last, the longest valid frame
// prefix is always consistent up to its last quanta chunk, and Salvage
// can anchor a replayable truncation at the last divergence checkpoint
// it covers. Load accepts only committed journals; an uncommitted
// journal is an interrupted recording and fails with ErrTruncated
// (pointing the user at drrepair / Salvage).

// JournalWriter appends a recording to disk as it happens. Methods keep
// a sticky error: after the first failure every later call is a no-op
// returning the same error, so the recording loop does not need to check
// every flush.
type JournalWriter struct {
	frameWriter
	f    *os.File
	path string
	sync bool
}

// NewJournalWriter creates (truncating) the journal at path and writes
// the header, the provisional meta and the initial state section from p
// — which only needs the fields known at region entry: ProgramName,
// Kind, CheckpointEvery and State. When sync is true every sealed chunk
// is fsynced, making each flushed window durable immediately.
func NewJournalWriter(path string, p *Pinball, sync bool) (*JournalWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pinball: journal: %w", err)
	}
	w := &JournalWriter{frameWriter: frameWriter{w: f}, f: f, path: path, sync: sync}
	w.header(p.Kind)
	w.frame(secMeta, p.meta(nil))
	w.frame(secState, p.State)
	if err := w.flush(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Err returns the sticky write error, if any.
func (w *JournalWriter) Err() error {
	if w.err == nil {
		return nil
	}
	return fmt.Errorf("pinball: journal %s: %w", w.path, w.err)
}

// flush fsyncs the journal when durable flushing is on.
func (w *JournalWriter) flush() error {
	if w.err == nil && w.sync {
		w.err = w.f.Sync()
	}
	return w.Err()
}

// AppendChunk seals one flush window: the non-empty deltas since the
// previous flush, quanta written last so a torn tail can never keep a
// schedule window whose events were lost.
func (w *JournalWriter) AppendChunk(quanta []vm.Quantum, syscalls []vm.SyscallRecord, edges []vm.OrderEdge, cps []Checkpoint) error {
	w.chunks(quanta, syscalls, edges, cps)
	return w.flush()
}

// AppendRecipe seals the bridge-recipe frame. Ring recordings write it
// immediately after the header sections, so even a journal torn at the
// first flush still knows how to re-derive the region by re-execution.
func (w *JournalWriter) AppendRecipe(r *Recipe) error {
	w.frame(secRecipe, r)
	return w.flush()
}

// AppendWindowSeal records that the ring recorder sealed flush window id
// covering global region steps [fromStep, toStep) with the given windowed
// event hash. The window's content stays in the in-memory ring (it may
// yet be evicted); only retained content is written at commit. Together
// with the recipe frame this makes an interrupted ring journal fully
// recoverable: every sealed window becomes a verifiable gap.
func (w *JournalWriter) AppendWindowSeal(id, fromStep, toStep int64, hash uint64) error {
	w.frame(secRingWindow, ringWindowV1{ID: id, FromStep: fromStep, ToStep: toStep, Hash: hash})
	return w.flush()
}

// Commit appends the ring frame (ring recordings only), the final meta
// from the finished pinball and the commit marker, then fsyncs and
// closes the journal — only then is the file a complete, loadable
// pinball.
func (w *JournalWriter) Commit(final *Pinball) error {
	if r := final.ring(); r != nil {
		w.frame(secRing, r)
	}
	manifest := append(append([]byte(nil), w.ids...), secCommit)
	w.frame(secMeta, final.meta(manifest))
	w.frame(secCommit, nil)
	if w.err == nil {
		w.err = w.f.Sync()
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.Err()
}

// Abort closes the journal without committing. The file is left on disk:
// it is exactly what a crash would have left, and Salvage can recover
// its checkpoint-consistent prefix.
func (w *JournalWriter) Abort() error {
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	return w.Err()
}

// journalParts is the raw content of a file's valid frame prefix.
type journalParts struct {
	kindB     byte
	meta      metaV1 // the last meta frame read
	hasMeta   bool
	committed bool
	p         *Pinball
	frames    int
	end       int64  // byte offset just past the last good frame
	ids       []byte // non-meta frame ids read, in file order
	// holed is set when the frames disagree with the meta's manifest: a
	// frame was dropped or duplicated, which a tear cannot do.
	holed bool

	// Ring (flight-recorder) state: ringMode is set by the recipe or ring
	// frame; windows accumulates every window-seal frame, in order.
	ringMode bool
	windows  []ringWindowV1
}

// readFrames walks the frames of a file whose header checkHeader
// accepted, accumulating chunks in order, until end of file, the commit
// marker, or the first damaged frame — in which case the error describes
// the damage and parts holds everything before it (parts.end is the
// damage offset).
func readFrames(data []byte) (*journalParts, error) {
	parts := &journalParts{p: &Pinball{}, end: HeaderLen}
	parts.kindB = data[len(fileMagic)+1]
	for off := HeaderLen; off < int64(len(data)); {
		f, next, err := readFrame(data, off, parts.frames+1)
		if err != nil {
			return parts, err
		}
		if err := parts.applyFrame(f); err != nil {
			return parts, err
		}
		parts.frames++
		parts.end = next
		off = next
		if parts.committed {
			if rest := int64(len(data)) - off; rest != 0 {
				return parts, fmt.Errorf("%w: %d trailing bytes after the commit frame at byte offset %d", ErrCorrupt, rest, off)
			}
			break
		}
	}
	return parts, nil
}

// checkManifest holds the frames read so far to the last meta's
// manifest: they must be a prefix of it, and all of it once the commit
// marker is read. A provisional meta (no manifest) defers the check.
func (j *journalParts) checkManifest(f frame) error {
	m := j.meta.Sections
	if f.id == secCommit && len(j.ids) != len(m) || m != nil && !bytes.HasPrefix(m, j.ids) {
		j.holed = true
		return fmt.Errorf("%w: section id %d (#%d) at byte offset %d: the %d frames read so far disagree with the %d-frame manifest",
			ErrCorrupt, f.id, f.index, f.off, len(j.ids), len(m))
	}
	return nil
}

// applyFrame merges one valid frame into the accumulated state.
func (j *journalParts) applyFrame(f frame) error {
	if f.id == secMeta {
		var m metaV1
		if err := f.decode(&m); err != nil {
			return err
		}
		j.meta, j.hasMeta = m, true
		return j.checkManifest(f)
	}
	j.ids = append(j.ids, f.id)
	if err := j.checkManifest(f); err != nil {
		return err
	}
	switch f.id {
	case secCommit:
		if len(f.payload) != 0 {
			return fmt.Errorf("%w: commit marker (#%d) at byte offset %d carries %d payload bytes", ErrCorrupt, f.index, f.off, len(f.payload))
		}
		j.committed = true
	case secState:
		return f.decode(&j.p.State)
	case secSlice:
		var sl sliceV1
		if err := f.decode(&sl); err != nil {
			return err
		}
		j.p.Exclusions, j.p.Injections = sl.Exclusions, sl.Injections
	case secQuantaChunk:
		var q []vm.Quantum
		if err := f.decode(&q); err != nil {
			return err
		}
		// A flush boundary can split a still-open quantum across chunks;
		// re-merge it so the decoded schedule is the recorder's. Runs
		// inside one chunk are kept as written.
		if n := len(j.p.Quanta); n > 0 && len(q) > 0 && j.p.Quanta[n-1].Tid == q[0].Tid {
			j.p.Quanta[n-1].Count += q[0].Count
			q = q[1:]
		}
		j.p.Quanta = append(j.p.Quanta, q...)
	case secSyscallChunk:
		return decodeAppend(f, &j.p.Syscalls)
	case secOrderChunk:
		return decodeAppend(f, &j.p.OrderEdges)
	case secCheckpointChunk:
		return decodeAppend(f, &j.p.Checkpoints)
	case secRecipe:
		var r Recipe
		if err := f.decode(&r); err != nil {
			return err
		}
		j.p.Recipe = &r
		j.ringMode = true
	case secRingWindow:
		var wv ringWindowV1
		if err := f.decode(&wv); err != nil {
			return err
		}
		j.windows = append(j.windows, wv)
	case secRing:
		var rg ringV1
		if err := f.decode(&rg); err != nil {
			return err
		}
		j.p.RingBytes, j.p.SampleKeep = rg.RingBytes, rg.SampleKeep
		j.p.Evictions = rg.Evictions
		if rg.Recipe != nil {
			j.p.Recipe = rg.Recipe
		}
		j.ringMode = true
	}
	return nil // checksum-verified unknown section: skip
}

// decodeAppend decodes a chunk frame and appends its elements to *dst.
func decodeAppend[T any](f frame, dst *[]T) error {
	var chunk []T
	if err := f.decode(&chunk); err != nil {
		return err
	}
	*dst = append(*dst, chunk...)
	return nil
}
