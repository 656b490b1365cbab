package pinball_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pinball"
	"repro/internal/vm"
)

// readDir lists the names in dir, failing the test on error.
func readDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	pb := samplePinball()
	if err := pb.Save(filepath.Join(dir, "a.pinball")); err != nil {
		t.Fatal(err)
	}
	for _, name := range readDir(t, dir) {
		if strings.Contains(name, ".tmp") {
			t.Errorf("staging file %s left behind", name)
		}
	}
}

func TestFailedSaveKeepsExistingFile(t *testing.T) {
	// Saving over a path that cannot be renamed onto (it is a directory)
	// must fail without clobbering it and without leaving a staging file.
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	pb := samplePinball()
	if err := pb.Save(target); err == nil {
		t.Fatal("Save over a directory succeeded")
	}
	if st, err := os.Stat(target); err != nil || !st.IsDir() {
		t.Errorf("existing target clobbered: %v %v", st, err)
	}
	for _, name := range readDir(t, dir) {
		if strings.Contains(name, ".tmp") {
			t.Errorf("staging file %s left behind after failed save", name)
		}
	}
}

// journalPinball is samplePinball with divergence checkpoints laid out
// for truncation tests: one at step 48 (inside the first quantum) and
// one at step 70 (the region end).
func journalPinball() *pinball.Pinball {
	pb := samplePinball()
	pb.Exclusions, pb.Injections = nil, nil
	pb.CheckpointEvery = 8
	pb.Checkpoints = []pinball.Checkpoint{
		{Tid: 0, Seq: 48, Idx: 48, Step: 48, Hash: 0xfeedface, PC: 10},
		{Tid: 1, Seq: 16, Idx: 16, Step: 70, Hash: 0xdeadbeef, PC: 20},
	}
	return pb
}

// writeJournal writes pb to path as a journal in two flush windows,
// committing only when commit is true. Returns the flush-window byte
// boundary (end of the first AppendChunk's frames).
func writeJournal(t testing.TB, path string, pb *pinball.Pinball, commit bool) int64 {
	t.Helper()
	provisional := &pinball.Pinball{
		ProgramName: pb.ProgramName, Kind: pb.Kind,
		State: pb.State, CheckpointEvery: pb.CheckpointEvery,
	}
	w, err := pinball.NewJournalWriter(path, provisional, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk(pb.Quanta[:1], pb.Syscalls, pb.OrderEdges, pb.Checkpoints[:1]); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	boundary := st.Size()
	if err := w.AppendChunk(pb.Quanta[1:], nil, nil, pb.Checkpoints[1:]); err != nil {
		t.Fatal(err)
	}
	if commit {
		if err := w.Commit(pb); err != nil {
			t.Fatal(err)
		}
	} else if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	return boundary
}

func TestJournalRoundTrip(t *testing.T) {
	pb := journalPinball()
	path := filepath.Join(t.TempDir(), "j.pinball")
	writeJournal(t, path, pb, true)
	got, err := pinball.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgramName != pb.ProgramName || got.Kind != pb.Kind ||
		got.RegionInstrs != pb.RegionInstrs || got.EndReason != pb.EndReason {
		t.Error("metadata lost through the journal")
	}
	if len(got.Quanta) != 2 || got.Quanta[1] != pb.Quanta[1] {
		t.Errorf("quanta lost through the journal: %v", got.Quanta)
	}
	if len(got.Syscalls) != 1 || got.Syscalls[0] != pb.Syscalls[0] {
		t.Error("syscalls lost through the journal")
	}
	if len(got.Checkpoints) != 2 || got.Checkpoints[1] != pb.Checkpoints[1] {
		t.Error("checkpoints lost through the journal")
	}
	if !got.State.Mem.Equal(pb.State.Mem) {
		t.Error("memory image lost through the journal")
	}
}

func TestUncommittedJournalRejectedByLoad(t *testing.T) {
	pb := journalPinball()
	path := filepath.Join(t.TempDir(), "j.pinball")
	writeJournal(t, path, pb, false)
	_, err := pinball.Load(path)
	if !errors.Is(err, pinball.ErrTruncated) {
		t.Fatalf("uncommitted journal: err = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "commit frame") {
		t.Errorf("error %q does not explain the missing commit", err)
	}
}

func TestSalvageUncommittedJournal(t *testing.T) {
	pb := journalPinball()
	path := filepath.Join(t.TempDir(), "j.pinball")
	writeJournal(t, path, pb, false)
	got, rep, err := pinball.Salvage(path)
	if err != nil {
		t.Fatalf("salvage: %v\n%s", err, rep.Summary())
	}
	// All 70 scheduled instructions survived; the anchor is the last
	// checkpoint, step 70 — the full region.
	if !rep.Truncated || rep.CheckpointStep != 70 {
		t.Errorf("report: truncated=%v step=%d, want truncation at 70", rep.Truncated, rep.CheckpointStep)
	}
	if got.RegionInstrs != 70 || got.TotalQuantumInstrs() != 70 {
		t.Errorf("salvaged region %d/%d, want 70/70", got.RegionInstrs, got.TotalQuantumInstrs())
	}
	if got.EndReason != "salvaged" {
		t.Errorf("EndReason = %q", got.EndReason)
	}
}

func TestSalvageTornJournalTruncatesToCheckpoint(t *testing.T) {
	pb := journalPinball()
	dir := t.TempDir()
	path := filepath.Join(dir, "j.pinball")
	boundary := writeJournal(t, path, pb, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the second flush window: only the first
	// window (quantum {0,50}, checkpoint at 48) survives intact.
	torn := filepath.Join(dir, "torn.pinball")
	if err := os.WriteFile(torn, data[:boundary+7], 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep, err := pinball.Salvage(torn)
	if err != nil {
		t.Fatalf("salvage: %v\n%s", err, rep.Summary())
	}
	if rep.CheckpointStep != 48 || got.RegionInstrs != 48 {
		t.Errorf("salvaged to step %d / region %d, want 48", rep.CheckpointStep, got.RegionInstrs)
	}
	// The 50-instruction quantum was split at the truncation boundary.
	if len(got.Quanta) != 1 || got.Quanta[0] != (vm.Quantum{Tid: 0, Count: 48}) {
		t.Errorf("salvaged quanta = %v, want [{0 48}]", got.Quanta)
	}
	if got.MainInstrs != 48 {
		t.Errorf("MainInstrs = %d, want 48", got.MainInstrs)
	}
	if len(got.Checkpoints) != 1 || got.Checkpoints[0].Step != 48 {
		t.Errorf("checkpoints = %v, want just the step-48 one", got.Checkpoints)
	}
	if rep.DamageOffset != boundary {
		t.Errorf("DamageOffset = %d, want flush boundary %d", rep.DamageOffset, boundary)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("salvaged pinball invalid: %v", err)
	}
}

func TestSalvageJournalWithoutCheckpointsFails(t *testing.T) {
	pb := journalPinball()
	pb.CheckpointEvery, pb.Checkpoints = 0, nil
	path := filepath.Join(t.TempDir(), "j.pinball")
	provisional := &pinball.Pinball{ProgramName: pb.ProgramName, Kind: pb.Kind, State: pb.State}
	w, err := pinball.NewJournalWriter(path, provisional, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk(pb.Quanta, pb.Syscalls, pb.OrderEdges, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	_, _, err = pinball.Salvage(path)
	if !errors.Is(err, pinball.ErrUnsalvageable) {
		t.Fatalf("journal without checkpoints: err = %v, want ErrUnsalvageable", err)
	}
}

// tornInFrame returns the encoding of pb cut halfway through the first
// frame with the given id.
func tornInFrame(t *testing.T, pb *pinball.Pinball, id byte) []byte {
	t.Helper()
	data, err := pb.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := pinball.SectionOffsets(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if s.ID == id {
			return data[:s.Off+s.Len/2]
		}
	}
	t.Fatalf("pinball has no frame with id %d", id)
	return nil
}

func TestSalvageSaveLostCheckpoints(t *testing.T) {
	pb := journalPinball()
	torn := tornInFrame(t, pb, 11) // the checkpoint chunk follows the schedule
	got, rep, err := pinball.SalvageBytes(torn)
	if err != nil {
		t.Fatalf("salvage: %v\n%s", err, rep.Summary())
	}
	if rep.Truncated || !rep.Unverified {
		t.Errorf("report: truncated=%v unverified=%v, want the whole region, unverified", rep.Truncated, rep.Unverified)
	}
	if got.RegionInstrs != pb.RegionInstrs || len(got.Syscalls) != 1 || len(got.Checkpoints) != 0 {
		t.Errorf("salvaged region %d, syscalls %d, checkpoints %d: want the full region without checkpoints",
			got.RegionInstrs, len(got.Syscalls), len(got.Checkpoints))
	}
	// A cadence without checkpoints is valid; replay just cannot verify
	// windows.
	if err := got.Validate(); err != nil {
		t.Errorf("salvaged pinball invalid: %v", err)
	}
}

// TestSalvageTornCommitMarkerKeepsRegion tears a saved file and a
// committed journal inside their empty commit marker: every frame before
// it survived, so the whole region comes back with its checkpoints,
// neither truncated nor unverified.
func TestSalvageTornCommitMarkerKeepsRegion(t *testing.T) {
	pb := journalPinball()
	path := filepath.Join(t.TempDir(), "j.pinball")
	writeJournal(t, path, pb, true)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, torn := range map[string][]byte{
		"save":    tornInFrame(t, pb, 12),
		"journal": journal[:len(journal)-7],
	} {
		if _, err := pinball.Decode(torn); !errors.Is(err, pinball.ErrTruncated) {
			t.Errorf("%s: decode err = %v, want ErrTruncated", name, err)
		}
		got, rep, err := pinball.SalvageBytes(torn)
		if err != nil {
			t.Fatalf("%s: salvage: %v\n%s", name, err, rep.Summary())
		}
		if rep.Truncated || rep.Unverified {
			t.Errorf("%s: report truncated=%v unverified=%v, want the whole region, verified", name, rep.Truncated, rep.Unverified)
		}
		if got.RegionInstrs != pb.RegionInstrs || len(got.Checkpoints) != len(pb.Checkpoints) {
			t.Errorf("%s: salvaged %d instrs, %d checkpoints; want %d, %d",
				name, got.RegionInstrs, len(got.Checkpoints), pb.RegionInstrs, len(pb.Checkpoints))
		}
	}
}

func TestSalvageSlicePinballLostSliceSectionFails(t *testing.T) {
	// A slice pinball torn inside its slice frame lost its injections, and
	// every schedule chunk after them: nothing replayable survives.
	pb := journalPinball()
	pb.Kind = pinball.KindSlice
	pb.Exclusions, pb.Injections = samplePinball().Exclusions, samplePinball().Injections
	torn := tornInFrame(t, pb, 6)
	if _, err := pinball.Decode(torn); !errors.Is(err, pinball.ErrTruncated) {
		t.Errorf("decode torn slice pinball: err = %v, want ErrTruncated", err)
	}
	if _, _, err := pinball.SalvageBytes(torn); !errors.Is(err, pinball.ErrUnsalvageable) {
		t.Fatalf("slice pinball torn in its slice frame: err = %v, want ErrUnsalvageable", err)
	}
}

func TestSalvageIntactFile(t *testing.T) {
	pb := samplePinball()
	path := filepath.Join(t.TempDir(), "ok.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	got, rep, err := pinball.Salvage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact {
		t.Error("intact file not reported as intact")
	}
	if got.RegionInstrs != pb.RegionInstrs {
		t.Error("intact salvage altered the pinball")
	}
}

func TestLoadErrorsCarrySectionOffsets(t *testing.T) {
	pb := samplePinball()
	data, err := pb.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := pinball.SectionOffsets(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the schedule chunk (id 8).
	for _, s := range secs {
		if s.ID == 8 {
			data[s.Off+13] ^= 0xff
		}
	}
	bad := filepath.Join(t.TempDir(), "flipped.pinball")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = pinball.Load(bad)
	if !errors.Is(err, pinball.ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	msg := err.Error()
	for _, want := range []string{"section id 8", "byte offset", "checksum", "flipped.pinball"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
