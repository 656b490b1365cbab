package pinball

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/vm"
)

// gzWriters recycles gzip writers across section encodes. A fresh
// deflate state is several hundred KB, and the journal seals dozens of
// frames per recording.
var gzWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// packPayload gob-encodes v through a pooled gzip writer and returns
// the compressed section payload.
func packPayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzWriters.Get().(*gzip.Writer)
	zw.Reset(&buf)
	err := gob.NewEncoder(zw).Encode(v)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	gzWriters.Put(zw)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// On-disk framing. Every pinball starts with the magic and a format
// version byte (version 1, the unframed pre-checksum format, is no
// longer read and fails as version skew):
//
//	version 2 ("format v1"): kind byte, section count, then framed
//	sections: id (1B), payload length (8B big-endian), CRC32-IEEE of the
//	compressed payload (4B), payload (gzip-compressed gob). Truncation,
//	bit flips and dropped sections are all detected before decoding.
//	version 3 ("journal"): kind byte, then framed sections appended
//	incrementally while recording, terminated by a commit frame — see
//	journal.go. A journal without its commit frame is an interrupted
//	recording: Load rejects it as truncated, Salvage recovers its
//	longest checkpoint-consistent prefix.
const (
	fileMagic      = "DRPB"
	versionFramed  = byte(2) // atomic-save format ("pinball format v1")
	versionJournal = byte(3) // incremental journal written during recording
)

// Section ids of the framed format. Meta, state and schedule are
// mandatory; the rest are written only when non-empty. Unknown ids are
// checksum-verified and skipped, leaving room for additive extensions.
const (
	secMeta        = byte(1)
	secState       = byte(2)
	secSchedule    = byte(3)
	secSyscalls    = byte(4)
	secOrder       = byte(5)
	secSlice       = byte(6)
	secCheckpoints = byte(7)
	// secRing carries the flight-recorder payload (ringV1): budget,
	// sampling policy, eviction manifest and bridge recipe. Written by v2
	// saves of ring pinballs and as the commit-time manifest frame of v3
	// ring journals. Ids 8-12 are the v3 chunk frames (journal.go).
	secRing = byte(13)
)

// sectionHeaderLen is id + length + crc.
const sectionHeaderLen = 1 + 8 + 4

// maxSectionLen bounds a single section payload (1 GiB compressed) so a
// tampered length field cannot drive a huge allocation.
const maxSectionLen = int64(1) << 30

// metaV1 is the meta section payload: everything about the pinball that
// is not bulk data.
type metaV1 struct {
	ProgramName     string
	Kind            Kind
	RegionInstrs    int64
	MainInstrs      int64
	SkipMain        int64
	EndReason       string
	Failure         *vm.Failure
	CheckpointEvery int64
	// Sections is the manifest of section ids the writer emitted. Salvage
	// uses it to tell which sections a torn file actually lost — without
	// it, a tear at a frame boundary is indistinguishable from a shorter
	// recording. Empty in files written before the manifest existed (gob
	// decodes the missing field as nil).
	Sections []byte
}

// sliceV1 is the slice section payload.
type sliceV1 struct {
	Exclusions []Exclusion
	Injections []Injection
}

// meta builds the meta section payload with the given section manifest.
func (p *Pinball) meta(manifest []byte) metaV1 {
	return metaV1{
		ProgramName: p.ProgramName, Kind: p.Kind,
		RegionInstrs: p.RegionInstrs, MainInstrs: p.MainInstrs, SkipMain: p.SkipMain,
		EndReason: p.EndReason, Failure: p.Failure, CheckpointEvery: p.CheckpointEvery,
		Sections: manifest,
	}
}

// applyMeta copies the meta payload's fields onto the pinball.
func (p *Pinball) applyMeta(meta metaV1) {
	p.ProgramName, p.Kind = meta.ProgramName, meta.Kind
	p.RegionInstrs, p.MainInstrs, p.SkipMain = meta.RegionInstrs, meta.MainInstrs, meta.SkipMain
	p.EndReason, p.Failure, p.CheckpointEvery = meta.EndReason, meta.Failure, meta.CheckpointEvery
}

// kindByte maps a pinball kind to its header triage byte.
func kindByte(k Kind) byte {
	switch k {
	case KindWhole:
		return 'W'
	case KindSlice:
		return 'S'
	default:
		return 'R'
	}
}

// Save writes the pinball to path in the framed v1 format (the paper uses
// bzip2 pinball compression; gzip is the stdlib equivalent). The write is
// crash-safe: the file is staged in a temporary sibling, fsynced and
// atomically renamed into place, so a crash or disk-full mid-save leaves
// either the previous complete file or no file — never a torn pinball,
// and never a stray temp file.
func (p *Pinball) Save(path string) error {
	if err := writeFileAtomic(path, p.encode); err != nil {
		return fmt.Errorf("pinball: save %s: %w", path, err)
	}
	return nil
}

// EncodeBytes returns the framed on-disk representation of the pinball,
// exactly as Save would write it. The fault-injection harness corrupts
// these bytes in memory instead of going through temporary files.
func (p *Pinball) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode writes the framed representation to w.
func (p *Pinball) encode(w io.Writer) error {
	type section struct {
		id      byte
		payload []byte
	}
	pack := func(id byte, v any) (section, error) {
		payload, err := packPayload(v)
		if err != nil {
			return section{}, fmt.Errorf("encode section %d: %w", id, err)
		}
		return section{id, payload}, nil
	}

	sections := []struct {
		id    byte
		v     any
		empty bool
	}{
		{secMeta, nil, false}, // meta payload built after the manifest is known
		{secState, p.State, false},
		{secSchedule, p.Quanta, false},
		{secSyscalls, p.Syscalls, len(p.Syscalls) == 0},
		{secOrder, p.OrderEdges, len(p.OrderEdges) == 0},
		{secSlice, sliceV1{p.Exclusions, p.Injections}, len(p.Exclusions) == 0 && len(p.Injections) == 0},
		{secCheckpoints, p.Checkpoints, len(p.Checkpoints) == 0},
		{secRing, ringV1{p.RingBytes, p.SampleKeep, p.Evictions, p.Recipe},
			p.RingBytes == 0 && p.SampleKeep == 0 && len(p.Evictions) == 0 && p.Recipe == nil},
	}
	var manifest []byte
	for _, s := range sections {
		if !s.empty {
			manifest = append(manifest, s.id)
		}
	}
	sections[0].v = p.meta(manifest)
	var packed []section
	for _, s := range sections {
		if s.empty {
			continue
		}
		ps, err := pack(s.id, s.v)
		if err != nil {
			return err
		}
		packed = append(packed, ps)
	}

	header := append([]byte(fileMagic), versionFramed, kindByte(p.Kind), byte(len(packed)))
	if _, err := w.Write(header); err != nil {
		return err
	}
	var frame [sectionHeaderLen]byte
	for _, s := range packed {
		frame[0] = s.id
		binary.BigEndian.PutUint64(frame[1:9], uint64(len(s.payload)))
		binary.BigEndian.PutUint32(frame[9:13], crc32.ChecksumIEEE(s.payload))
		if _, err := w.Write(frame[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// Load reads, checksum-verifies and structurally validates a pinball.
// Every error is wrapped with the file path and one of the typed
// sentinels (ErrNotPinball, ErrVersionSkew, ErrTruncated, ErrCorrupt).
func Load(path string) (*Pinball, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pinball: %w", err)
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("pinball: load %s: %w", path, err)
	}
	return p, nil
}

// Decode parses pinball file bytes (framed or journal), verifying
// checksums and structural invariants.
func Decode(data []byte) (*Pinball, error) {
	if len(data) < len(fileMagic)+1 {
		return nil, fmt.Errorf("%w: %d-byte file", ErrNotPinball, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrNotPinball)
	}
	var p *Pinball
	var err error
	switch v := data[len(fileMagic)]; v {
	case versionFramed:
		p, err = decodeFramed(data)
	case versionJournal:
		p, err = decodeJournal(data)
	default:
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d-%d", ErrVersionSkew, v, versionFramed, versionJournal)
	}
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// frame is one parsed section frame: its id, 1-based position in the
// file, absolute byte offset and checksum-verified payload.
type frame struct {
	id      byte
	index   int
	off     int64
	payload []byte
}

// readFrame parses and checksum-verifies the frame at absolute byte
// offset off of the file bytes. Every error names the failing section's
// index and byte offset, so corruption reports (and drrepair diagnostics)
// point at the damage instead of just declaring it.
func readFrame(data []byte, off int64, index int) (frame, int64, error) {
	if int64(len(data)) < off+sectionHeaderLen {
		return frame{}, 0, fmt.Errorf("%w: file ends inside the header of section #%d at byte offset %d",
			ErrTruncated, index, off)
	}
	id := data[off]
	n := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
	sum := binary.BigEndian.Uint32(data[off+9 : off+13])
	if n < 0 || n > maxSectionLen {
		return frame{}, 0, fmt.Errorf("%w: section id %d (#%d) at byte offset %d claims %d bytes",
			ErrCorrupt, id, index, off, n)
	}
	if int64(len(data)) < off+sectionHeaderLen+n {
		return frame{}, 0, fmt.Errorf("%w: section id %d (#%d) at byte offset %d claims %d payload bytes, %d remain",
			ErrTruncated, id, index, off, n, int64(len(data))-off-sectionHeaderLen)
	}
	payload := data[off+sectionHeaderLen : off+sectionHeaderLen+n]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return frame{}, 0, fmt.Errorf("%w: section id %d (#%d) at byte offset %d checksum mismatch (want %08x, got %08x)",
			ErrCorrupt, id, index, off, sum, got)
	}
	return frame{id: id, index: index, off: off, payload: payload}, off + sectionHeaderLen + n, nil
}

// decode decompresses and gob-decodes the frame payload into dst,
// pinning errors to the frame's location.
func (f frame) decode(dst any) error {
	zr, err := gzip.NewReader(bytes.NewReader(f.payload))
	if err != nil {
		return fmt.Errorf("%w: section id %d (#%d) at byte offset %d: decompress: %v",
			ErrCorrupt, f.id, f.index, f.off, err)
	}
	defer zr.Close()
	if err := gobDecode(zr, dst); err != nil {
		return fmt.Errorf("section id %d (#%d) at byte offset %d: %w", f.id, f.index, f.off, err)
	}
	return nil
}

// apply decodes the frame into its slot on p (meta frames into meta).
// Unknown ids are checksum-verified and skipped.
func (f frame) apply(p *Pinball, meta *metaV1) error {
	var dst any
	var sl sliceV1
	var ring ringV1
	switch f.id {
	case secMeta:
		dst = meta
	case secState:
		dst = &p.State
	case secSchedule:
		dst = &p.Quanta
	case secSyscalls:
		dst = &p.Syscalls
	case secOrder:
		dst = &p.OrderEdges
	case secSlice:
		dst = &sl
	case secCheckpoints:
		dst = &p.Checkpoints
	case secRing:
		dst = &ring
	default:
		return nil
	}
	if err := f.decode(dst); err != nil {
		return err
	}
	switch f.id {
	case secSlice:
		p.Exclusions, p.Injections = sl.Exclusions, sl.Injections
	case secRing:
		p.RingBytes, p.SampleKeep = ring.RingBytes, ring.SampleKeep
		p.Evictions, p.Recipe = ring.Evictions, ring.Recipe
	}
	return nil
}

// framedHeaderLen is the v2 file header: magic + version + kind + count.
const framedHeaderLen = int64(len(fileMagic) + 3)

// decodeFramed reads the v1 section framing from the full file bytes.
func decodeFramed(data []byte) (*Pinball, error) {
	if int64(len(data)) < framedHeaderLen {
		return nil, fmt.Errorf("%w: header ends after version byte", ErrTruncated)
	}
	kindB, count := data[len(fileMagic)+1], int(data[len(fileMagic)+2])

	p := &Pinball{}
	meta := metaV1{}
	seen := map[byte]bool{}
	off := framedHeaderLen
	for i := 1; i <= count; i++ {
		f, next, err := readFrame(data, off, i)
		if err != nil {
			return nil, err
		}
		off = next
		if seen[f.id] {
			return nil, fmt.Errorf("%w: duplicate section id %d (#%d) at byte offset %d", ErrCorrupt, f.id, i, f.off)
		}
		seen[f.id] = true
		if err := f.apply(p, &meta); err != nil {
			return nil, err
		}
	}
	if rest := int64(len(data)) - off; rest != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last section at byte offset %d", ErrCorrupt, rest, off)
	}
	for _, req := range []byte{secMeta, secState, secSchedule} {
		if !seen[req] {
			return nil, fmt.Errorf("%w: mandatory section %d missing", ErrCorrupt, req)
		}
	}
	for _, id := range meta.Sections {
		if !seen[id] {
			return nil, fmt.Errorf("%w: section %d is in the manifest but missing from the file", ErrCorrupt, id)
		}
	}
	p.applyMeta(meta)
	if kindByte(p.Kind) != kindB {
		return nil, fmt.Errorf("%w: header kind %q does not match meta kind %q", ErrCorrupt, kindB, p.Kind)
	}
	return p, nil
}

// gobDecode decodes into v, converting both gob errors and gob panics
// (which malformed streams can trigger deep inside the decoder) into
// typed errors.
func gobDecode(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: decode panic: %v", ErrCorrupt, p)
		}
	}()
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: stream ends mid-value", ErrTruncated)
		}
		return fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	return nil
}

// SectionInfo locates one framed section inside a v1 pinball file; Off is
// the frame start and Len the full frame length (header + payload). The
// fault-injection harness uses it to drop or damage precise sections.
type SectionInfo struct {
	ID  byte
	Off int64
	Len int64
}

// SectionOffsets walks the framing of v1 (framed) or journal pinball
// file bytes without decoding payloads. It fails with the same typed
// errors as Decode.
func SectionOffsets(data []byte) ([]SectionInfo, error) {
	headerLen := len(fileMagic) + 2
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrNotPinball)
	}
	count := -1 // journal: frames run to end of file
	off := int64(headerLen)
	switch v := data[len(fileMagic)]; v {
	case versionFramed:
		if int64(len(data)) < framedHeaderLen {
			return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(data))
		}
		count = int(data[headerLen])
		off = framedHeaderLen
	case versionJournal:
	default:
		return nil, fmt.Errorf("%w: version %d has no section framing", ErrVersionSkew, v)
	}
	var out []SectionInfo
	for i := 1; count < 0 || i <= count; i++ {
		if count < 0 && off == int64(len(data)) {
			break
		}
		if int64(len(data)) < off+sectionHeaderLen {
			return nil, fmt.Errorf("%w: file ends inside section header %d", ErrTruncated, i)
		}
		n := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
		if n < 0 || n > maxSectionLen || int64(len(data)) < off+sectionHeaderLen+n {
			return nil, fmt.Errorf("%w: section %d overruns the file", ErrTruncated, i)
		}
		out = append(out, SectionInfo{ID: data[off], Off: off, Len: sectionHeaderLen + n})
		off += sectionHeaderLen + n
	}
	return out, nil
}

// EncodedSize returns the on-disk size of the pinball in bytes by
// encoding it to a counting sink; the evaluation tables report this as
// the pinball's space overhead.
func (p *Pinball) EncodedSize() (int64, error) {
	var cw countingWriter
	if err := p.encode(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}
