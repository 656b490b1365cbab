// Package faultinject provides deterministic pinball corruptors for
// testing the robustness layers around record/replay: the framed,
// checksummed pinball format (which must reject corrupted files with
// typed errors) and the replay divergence checkpoints (which must catch
// semantic tampering that survives decoding). Every corruptor is pure
// and deterministic — same input bytes or pinball, same corruption — so
// the detection matrix in the tests is reproducible.
//
// Two corruptor families mirror the two defence layers:
//
//   - FileCorruptors mutate encoded pinball bytes (bit flips,
//     truncations, dropped frames, checksum and header tampering).
//     pinball.Decode must reject each with the declared typed error.
//   - PinballCorruptors mutate a decoded Pinball in memory (schedule
//     shifts, syscall-result tampering, initial-state edits). These
//     survive re-encoding; either pinball.Validate rejects them or a
//     replay divergence checkpoint must fire.
package faultinject

import (
	"encoding/binary"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

// FileCorruptor deterministically corrupts the encoded bytes of a
// pinball file.
type FileCorruptor struct {
	Name string
	// Want is the typed pinball error Decode must return for the
	// corrupted bytes (matched with errors.Is).
	Want error
	// Apply returns a corrupted copy of data. ok is false when the
	// corruptor does not apply to this file (it never mutates data).
	Apply func(data []byte) (out []byte, ok bool)
}

// headerLen is the file header: magic + version + kind.
const headerLen = 4 + 1 + 1

// sectionHeaderLen mirrors the framing: id (1B) + length (8B) + CRC (4B).
const sectionHeaderLen = 1 + 8 + 4

// clone copies data so corruptors never alias the caller's bytes.
func clone(data []byte) []byte {
	return append([]byte(nil), data...)
}

// sections parses the frame table, returning nil when the bytes are not
// a well-framed pinball (corruptors needing the table then report
// not-applicable).
func sections(data []byte) []pinball.SectionInfo {
	secs, err := pinball.SectionOffsets(data)
	if err != nil {
		return nil
	}
	return secs
}

// findSection returns the section with the given id, or ok=false.
func findSection(data []byte, id byte) (pinball.SectionInfo, bool) {
	for _, s := range sections(data) {
		if s.ID == id {
			return s, true
		}
	}
	return pinball.SectionInfo{}, false
}

// FileCorruptors returns the full byte-level corruptor suite. The
// schedule chunk (frame id 8) is used where a specific frame is needed:
// every recorded pinball has one, so the corruptors apply to every kind.
func FileCorruptors() []FileCorruptor {
	const secSchedule = byte(8)
	return []FileCorruptor{
		{
			Name: "flip-magic",
			Want: pinball.ErrNotPinball,
			Apply: func(data []byte) ([]byte, bool) {
				if len(data) == 0 {
					return nil, false
				}
				out := clone(data)
				out[0] ^= 0xFF
				return out, true
			},
		},
		{
			Name: "bump-version",
			Want: pinball.ErrVersionSkew,
			Apply: func(data []byte) ([]byte, bool) {
				if len(data) < 5 {
					return nil, false
				}
				out := clone(data)
				out[4] = 0x7F
				return out, true
			},
		},
		{
			Name: "swap-kind-byte",
			Want: pinball.ErrCorrupt,
			Apply: func(data []byte) ([]byte, bool) {
				if len(data) < headerLen {
					return nil, false
				}
				out := clone(data)
				if out[5] == 'S' {
					out[5] = 'R'
				} else {
					out[5] = 'S'
				}
				return out, true
			},
		},
		{
			Name: "flip-payload-bit",
			Want: pinball.ErrCorrupt,
			Apply: func(data []byte) ([]byte, bool) {
				s, ok := findSection(data, secSchedule)
				if !ok || s.Len <= sectionHeaderLen {
					return nil, false
				}
				out := clone(data)
				out[s.Off+sectionHeaderLen+(s.Len-sectionHeaderLen)/2] ^= 0x10
				return out, true
			},
		},
		{
			Name: "zero-crc",
			Want: pinball.ErrCorrupt,
			Apply: func(data []byte) ([]byte, bool) {
				s, ok := findSection(data, secSchedule)
				if !ok {
					return nil, false
				}
				out := clone(data)
				crc := out[s.Off+9 : s.Off+13]
				if binary.BigEndian.Uint32(crc) == 0 {
					binary.BigEndian.PutUint32(crc, 0xFFFFFFFF)
				} else {
					binary.BigEndian.PutUint32(crc, 0)
				}
				return out, true
			},
		},
		{
			Name: "drop-section",
			Want: pinball.ErrCorrupt,
			Apply: func(data []byte) ([]byte, bool) {
				s, ok := findSection(data, secSchedule)
				if !ok {
					return nil, false
				}
				out := make([]byte, 0, int64(len(data))-s.Len)
				out = append(out, data[:s.Off]...)
				out = append(out, data[s.Off+s.Len:]...)
				return out, true
			},
		},
		{
			Name: "truncate-tail",
			Want: pinball.ErrTruncated,
			Apply: func(data []byte) ([]byte, bool) {
				if len(data) < headerLen+16 {
					return nil, false
				}
				return clone(data[:len(data)-16]), true
			},
		},
		{
			Name: "truncate-half",
			Want: pinball.ErrTruncated,
			Apply: func(data []byte) ([]byte, bool) {
				if len(data) < headerLen*2 {
					return nil, false
				}
				return clone(data[:len(data)/2]), true
			},
		},
		{
			Name: "truncate-header",
			Want: pinball.ErrTruncated,
			Apply: func(data []byte) ([]byte, bool) {
				if len(data) < 5 {
					return nil, false
				}
				return clone(data[:5]), true
			},
		},
		{
			Name: "trailing-garbage",
			Want: pinball.ErrCorrupt,
			Apply: func(data []byte) ([]byte, bool) {
				out := clone(data)
				return append(out, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55), true
			},
		},
	}
}

// PinballCorruptor deterministically tampers with a decoded pinball —
// semantic corruption that byte-level checksums cannot see. Detection is
// two-layered: pinball.Validate may reject the result outright;
// otherwise a replay must fail (divergence checkpoint, schedule
// mismatch, or a machine fault).
type PinballCorruptor struct {
	Name string
	// SliceOnly marks corruptors that only apply to slice pinballs.
	SliceOnly bool
	// Apply mutates pb in place. ok is false when the corruptor does not
	// apply to this pinball.
	Apply func(pb *pinball.Pinball) bool
}

// Clone deep-copies a pinball through its encoded form, so corruptors
// can mutate freely without touching the original.
func Clone(pb *pinball.Pinball) (*pinball.Pinball, error) {
	data, err := pb.EncodeBytes()
	if err != nil {
		return nil, err
	}
	return pinball.Decode(data)
}

// PinballCorruptors returns the semantic tampering suite.
func PinballCorruptors() []PinballCorruptor {
	return []PinballCorruptor{
		{
			// Move instructions across a preemption boundary between two
			// threads: the quantum sum (and so Validate) is preserved,
			// but the replayed interleaving differs from the recording.
			Name: "shift-quantum-boundary",
			Apply: func(pb *pinball.Pinball) bool {
				q := pb.Quanta
				for off := 0; off < len(q); off++ {
					i := (len(q)/2 + off) % len(q)
					if i+1 >= len(q) {
						continue
					}
					if q[i].Tid != q[i+1].Tid && q[i].Count > 1 {
						n := q[i].Count - 1
						if n > 7 {
							n = 7
						}
						q[i].Count -= n
						q[i+1].Count += n
						return true
					}
				}
				return false
			},
		},
		{
			// Hand one mid-region quantum to a different thread that is
			// also scheduled later: both threads' instruction streams
			// shift relative to the recording.
			Name: "swap-quantum-tid",
			Apply: func(pb *pinball.Pinball) bool {
				q := pb.Quanta
				for off := 0; off < len(q); off++ {
					i := (len(q)/2 + off) % len(q)
					for j := i + 1; j < len(q); j++ {
						if q[j].Tid != q[i].Tid {
							q[i].Tid = q[j].Tid
							return true
						}
					}
				}
				return false
			},
		},
		{
			// Corrupt every recorded syscall result: replayed reads hand
			// the program different input than the recording saw.
			Name: "tamper-syscall-ret",
			Apply: func(pb *pinball.Pinball) bool {
				if len(pb.Syscalls) == 0 {
					return false
				}
				for i := range pb.Syscalls {
					pb.Syscalls[i].Ret += 9001
				}
				return true
			},
		},
		{
			// Shift the main thread's stack pointer in the captured
			// initial state: every stack access lands one word off.
			Name: "tamper-initial-sp",
			Apply: func(pb *pinball.Pinball) bool {
				if pb.State == nil || len(pb.State.Threads) == 0 {
					return false
				}
				pb.State.Threads[0].Regs[isa.SP] -= 1
				return true
			},
		},
		{
			// Flip a live global in the captured memory image (globals
			// occupy [0, vm.HeapBase)). If the image has no non-zero
			// global yet, plant a non-zero value at address 0.
			Name: "tamper-global-word",
			Apply: func(pb *pinball.Pinball) bool {
				if pb.State == nil {
					return false
				}
				img := pb.State.Mem
				for pn, words := range img {
					base := pn * int64(len(words))
					if base < 0 || base >= vm.HeapBase {
						continue
					}
					for i, w := range words {
						if w != 0 && base+int64(i) < vm.HeapBase {
							words[i] = w ^ 0x2A
							return true
						}
					}
				}
				if img == nil {
					return false
				}
				img[0] = make([]int64, 1<<6)
				img[0][0] = 0x5A
				return true
			},
		},
		{
			// Drop trailing quanta (fixing the instruction accounting so
			// the quantum sum stays consistent) until a recorded
			// checkpoint lies beyond the shortened schedule. Validate
			// rejects the result: a checkpoint past the region end.
			Name: "truncate-schedule",
			Apply: func(pb *pinball.Pinball) bool {
				var maxStep int64
				for _, cp := range pb.Checkpoints {
					if cp.Step > maxStep {
						maxStep = cp.Step
					}
				}
				if maxStep == 0 {
					return false
				}
				total := pb.TotalQuantumInstrs()
				for len(pb.Quanta) > 1 && total >= maxStep {
					last := pb.Quanta[len(pb.Quanta)-1]
					pb.Quanta = pb.Quanta[:len(pb.Quanta)-1]
					total -= last.Count
					pb.RegionInstrs -= last.Count
					if last.Tid == 0 {
						pb.MainInstrs -= last.Count
						if pb.MainInstrs < 0 {
							pb.MainInstrs = 0
						}
					}
				}
				return total < maxStep
			},
		},
		{
			// Flip a recorded checkpoint hash: the replay itself is
			// untampered, so this exercises pure checkpoint comparison.
			Name: "tamper-checkpoint-hash",
			Apply: func(pb *pinball.Pinball) bool {
				if len(pb.Checkpoints) == 0 {
					return false
				}
				pb.Checkpoints[len(pb.Checkpoints)/2].Hash ^= 0xDEADBEEF
				return true
			},
		},
		{
			// Remove one side-effect injection from a slice pinball: the
			// thread resumes after a skipped region without the region's
			// effects.
			Name:      "drop-injection",
			SliceOnly: true,
			Apply: func(pb *pinball.Pinball) bool {
				if len(pb.Injections) == 0 {
					return false
				}
				i := len(pb.Injections) / 2
				pb.Injections = append(pb.Injections[:i], pb.Injections[i+1:]...)
				return true
			},
		},
	}
}

// RingCorruptors returns the flight-recorder tampering suite. Every
// corruptor applies only to gapped (ring) pinballs — Apply reports false
// for ordinary recordings — and must be caught the same two-layered way:
// Validate rejects the structurally broken ones, and a replay of the rest
// fails typed (a BridgeError or divergence), never silently succeeding
// with wrong content.
func RingCorruptors() []PinballCorruptor {
	return []PinballCorruptor{
		{
			// Flip one retained window hash. The bridge re-derives the
			// window bit-for-bit correctly, but verification against the
			// tampered hash must fail: an exact bridge becomes a typed
			// degraded outcome, never a clean exit.
			Name: "flip-eviction-hash",
			Apply: func(pb *pinball.Pinball) bool {
				if !pb.Gapped() {
					return false
				}
				pb.Evictions[len(pb.Evictions)/2].Hash ^= 1
				return true
			},
		},
		{
			// Tamper the bridge recipe's scheduler state: re-execution
			// takes a different interleaving, so the re-derived windows
			// diverge from the retained hashes (or a checkpoint fires).
			Name: "tamper-ring-recipe",
			Apply: func(pb *pinball.Pinball) bool {
				if !pb.Gapped() || pb.Recipe == nil {
					return false
				}
				pb.Recipe.SchedState ^= 1
				return true
			},
		},
		{
			// Drop the recipe entirely: a gapped pinball without its
			// bridge recipe cannot be replayed and is structurally
			// invalid — Validate must reject it at load time.
			Name: "drop-ring-recipe",
			Apply: func(pb *pinball.Pinball) bool {
				if !pb.Gapped() || pb.Recipe == nil {
					return false
				}
				pb.Recipe = nil
				return true
			},
		},
	}
}
