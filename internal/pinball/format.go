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

// On-disk format. A pinball file is the magic, the format version byte
// and the kind byte ('W', 'R' or 'S'), followed by frames: id (1B),
// payload length (8B big-endian), CRC32-IEEE of the payload (4B) and the
// payload, a gzip-compressed gob value. Truncation, bit flips and
// dropped frames are all detected before anything is decoded.
//
// Both writers produce this one layout. Save writes the finished
// pinball in one pass: meta, state, the ring and slice frames when
// non-empty, one chunk frame per non-empty stream (checkpoints last),
// then the commit marker. A recording journal (journal.go) writes a
// provisional meta and the state at region entry, appends chunk frames
// as the region runs, and commits with the ring frame, the final meta
// and the marker. The last meta frame is authoritative: its Sections
// field lists the id of every non-meta frame in file order, commit
// marker included, and Decode rejects a file whose frames disagree with
// it. A file without its commit marker is an interrupted recording:
// Decode rejects it as truncated, Salvage recovers its longest
// checkpoint-consistent prefix. Versions 1 (unframed), 2
// (whole-section framing) and 3 (journals with a meta in the commit
// frame, no manifest and a map-valued state frame) are no longer read
// and fail as version skew.
const (
	fileMagic     = "DRPB"
	formatVersion = byte(4)
)

// headerLen is the file header: magic + version + kind.
const headerLen = int64(len(fileMagic) + 2)

// Frame ids. Unknown ids are checksum-verified and skipped (they must
// still appear in the manifest), leaving room for additive extensions.
const (
	secMeta            = byte(1)  // metaV1; the last one is authoritative
	secState           = byte(2)  // vm.MachineState, the initial machine state
	secSlice           = byte(6)  // sliceV1, slice pinballs only
	secQuantaChunk     = byte(8)  // []vm.Quantum
	secSyscallChunk    = byte(9)  // []vm.SyscallRecord
	secOrderChunk      = byte(10) // []vm.OrderEdge
	secCheckpointChunk = byte(11) // []Checkpoint
	secCommit          = byte(12) // empty marker: the file is complete
	secRing            = byte(13) // ringV1, the flight-recorder fields
	secRecipe          = byte(14) // Recipe, written early by ring journals
	secRingWindow      = byte(15) // ringWindowV1, one per sealed ring window
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
	// Sections is the frame manifest: the id of every non-meta frame in
	// file order, ending with the commit marker. Nil in a journal's
	// provisional meta, whose frames are not known yet.
	Sections []byte
}

// sliceV1 is the slice section payload.
type sliceV1 struct {
	Exclusions []Exclusion
	Injections []Injection
}

// meta builds the meta section payload with the given frame manifest.
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

// frameWriter seals frames onto w and remembers the id of every
// non-meta frame, which is what the authoritative meta's manifest lists.
// The error is sticky: after the first failure every write is a no-op.
type frameWriter struct {
	w   io.Writer
	ids []byte
	err error
}

// header writes the file header.
func (fw *frameWriter) header(k Kind) {
	if fw.err == nil {
		_, fw.err = fw.w.Write(append([]byte(fileMagic), formatVersion, kindByte(k)))
	}
}

// frame seals one frame holding v; a nil v gives an empty payload.
func (fw *frameWriter) frame(id byte, v any) {
	if fw.err != nil {
		return
	}
	var payload []byte
	if v != nil {
		var err error
		if payload, err = packPayload(v); err != nil {
			fw.err = fmt.Errorf("encode section %d: %w", id, err)
			return
		}
	}
	var hdr [sectionHeaderLen]byte
	hdr[0] = id
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, fw.err = fw.w.Write(hdr[:]); fw.err == nil {
		_, fw.err = fw.w.Write(payload)
	}
	if id != secMeta {
		fw.ids = append(fw.ids, id)
	}
}

// chunks seals one flush window: the non-empty streams, quanta LAST.
// Frames are appended in order, so a torn tail that keeps a window's
// quanta chunk keeps all of its events too.
func (fw *frameWriter) chunks(quanta []vm.Quantum, syscalls []vm.SyscallRecord, edges []vm.OrderEdge, cps []Checkpoint) {
	if len(syscalls) > 0 {
		fw.frame(secSyscallChunk, syscalls)
	}
	if len(edges) > 0 {
		fw.frame(secOrderChunk, edges)
	}
	if len(cps) > 0 {
		fw.frame(secCheckpointChunk, cps)
	}
	if len(quanta) > 0 {
		fw.frame(secQuantaChunk, quanta)
	}
}

// ring returns the ring frame payload, or nil when ring mode is off.
func (p *Pinball) ring() *ringV1 {
	if p.RingBytes == 0 && p.SampleKeep == 0 && len(p.Evictions) == 0 && p.Recipe == nil {
		return nil
	}
	return &ringV1{p.RingBytes, p.SampleKeep, p.Evictions, p.Recipe}
}

// Save writes the pinball to path (the paper uses bzip2 pinball
// compression; gzip is the stdlib equivalent). The write is crash-safe:
// the file is staged in a temporary sibling, fsynced and atomically
// renamed into place, so a crash or disk-full mid-save leaves either the
// previous complete file or no file — never a torn pinball, and never a
// stray temp file.
func (p *Pinball) Save(path string) error {
	if err := writeFileAtomic(path, p.encode); err != nil {
		return fmt.Errorf("pinball: save %s: %w", path, err)
	}
	return nil
}

// EncodeBytes returns the on-disk representation of the pinball,
// exactly as Save would write it. The fault-injection harness corrupts
// these bytes in memory instead of going through temporary files.
func (p *Pinball) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encode writes the pinball as a committed journal in one pass: the
// final meta first, so it is the only meta frame, then the whole region
// as a single flush window. The frames after the meta are sealed into a
// buffer first, because the meta's manifest lists them. Equal pinballs
// encode to equal bytes.
func (p *Pinball) encode(w io.Writer) error {
	var body bytes.Buffer
	bw := &frameWriter{w: &body}
	bw.frame(secState, p.State)
	if r := p.ring(); r != nil {
		bw.frame(secRing, r)
	}
	if len(p.Exclusions) > 0 || len(p.Injections) > 0 {
		bw.frame(secSlice, sliceV1{p.Exclusions, p.Injections})
	}
	// The checkpoints, usually the largest frame, follow the schedule: a
	// tear inside them keeps a complete region, which Salvage recovers.
	bw.chunks(p.Quanta, p.Syscalls, p.OrderEdges, nil)
	if len(p.Checkpoints) > 0 {
		bw.frame(secCheckpointChunk, p.Checkpoints)
	}
	if bw.err != nil {
		return bw.err
	}
	fw := &frameWriter{w: w}
	fw.header(p.Kind)
	fw.frame(secMeta, p.meta(append(bw.ids, secCommit)))
	if fw.err == nil {
		_, fw.err = w.Write(body.Bytes())
	}
	fw.frame(secCommit, nil)
	return fw.err
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

// Decode parses committed pinball file bytes, verifying checksums, the
// frame manifest and structural invariants.
func Decode(data []byte) (*Pinball, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	parts, err := readFrames(data)
	if err != nil {
		return nil, err
	}
	if !parts.committed {
		return nil, fmt.Errorf("%w: journal has no commit frame — the recording was interrupted (run drrepair, or load with salvage enabled)", ErrTruncated)
	}
	p := parts.p
	p.applyMeta(parts.meta)
	if kindByte(p.Kind) != parts.kindB {
		return nil, fmt.Errorf("%w: header kind %q does not match meta kind %q", ErrCorrupt, parts.kindB, p.Kind)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkHeader checks the magic, the format version byte and that the
// kind byte is present.
func checkHeader(data []byte) error {
	if len(data) < len(fileMagic)+1 {
		return fmt.Errorf("%w: %d-byte file", ErrNotPinball, len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return fmt.Errorf("%w: bad magic", ErrNotPinball)
	}
	if v := data[len(fileMagic)]; v != formatVersion {
		return fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersionSkew, v, formatVersion)
	}
	if int64(len(data)) < headerLen {
		return fmt.Errorf("%w: header ends after version byte", ErrTruncated)
	}
	return nil
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

// SectionInfo locates one frame inside a pinball file; Off is the frame
// start and Len the full frame length (header + payload). The store
// chunks files at these boundaries and the fault-injection harness uses
// them to drop or damage precise frames.
type SectionInfo struct {
	ID  byte
	Off int64
	Len int64
}

// SectionOffsets walks the frames of pinball file bytes without decoding
// payloads. It fails with the same typed errors as Decode.
func SectionOffsets(data []byte) ([]SectionInfo, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	var out []SectionInfo
	for off := headerLen; off < int64(len(data)); {
		if int64(len(data)) < off+sectionHeaderLen {
			return nil, fmt.Errorf("%w: file ends inside section header %d", ErrTruncated, len(out)+1)
		}
		n := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
		if n < 0 || n > maxSectionLen || int64(len(data)) < off+sectionHeaderLen+n {
			return nil, fmt.Errorf("%w: section %d overruns the file", ErrTruncated, len(out)+1)
		}
		out = append(out, SectionInfo{ID: data[off], Off: off, Len: sectionHeaderLen + n})
		off += sectionHeaderLen + n
	}
	return out, nil
}

// EncodedSize returns the on-disk size of the pinball in bytes; the
// evaluation tables report this as the pinball's space overhead.
func (p *Pinball) EncodedSize() (int64, error) {
	data, err := p.EncodeBytes()
	return int64(len(data)), err
}
