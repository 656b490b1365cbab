package pinball_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pinball"
	"repro/internal/vm"
)

func ringRecipe() *pinball.Recipe {
	return &pinball.Recipe{SchedState: 7, MeanQ: 10}
}

// ringPinball is a gapped flight-recorder pinball: windows (0,30] and
// (30,60] were evicted, the final 30 instructions retained.
func ringPinball() *pinball.Pinball {
	pb := journalPinball()
	pb.Quanta = []vm.Quantum{{Tid: 0, Count: 30}}
	pb.RegionInstrs, pb.MainInstrs = 90, 30
	pb.RingBytes, pb.SampleKeep = 512, 0
	pb.Recipe = ringRecipe()
	pb.Evictions = []pinball.Eviction{
		{ID: 0, FromStep: 0, ToStep: 30, Bytes: 100, Hash: 0x1111},
		{ID: 1, FromStep: 30, ToStep: 60, Bytes: 100, Hash: 0x2222},
	}
	pb.Checkpoints = nil
	return pb
}

func TestGapAccounting(t *testing.T) {
	pb := ringPinball()
	if !pb.Gapped() {
		t.Fatal("pinball with evictions not Gapped")
	}
	if got := pb.GapInstrs(); got != 60 {
		t.Fatalf("GapInstrs = %d, want 60", got)
	}
	if err := pb.Validate(); err != nil {
		t.Fatalf("gapped pinball invalid: %v", err)
	}
	if samplePinball().Gapped() {
		t.Error("plain pinball reports Gapped")
	}
}

func TestValidateRejectsBrokenRings(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*pinball.Pinball)
		want string
	}{
		{"missing recipe", func(p *pinball.Pinball) { p.Recipe = nil }, "recipe"},
		{"unsorted spans", func(p *pinball.Pinball) {
			p.Evictions[0], p.Evictions[1] = p.Evictions[1], p.Evictions[0]
		}, "order"},
		{"overlapping spans", func(p *pinball.Pinball) { p.Evictions[1].FromStep = 20 }, "overlap"},
		{"span past region", func(p *pinball.Pinball) { p.Evictions[1].ToStep = 1000 }, "region"},
		{"empty span", func(p *pinball.Pinball) { p.Evictions[1].ToStep = 30 }, "span"},
		{"negative budget", func(p *pinball.Pinball) { p.RingBytes = -1 }, "ring"},
		{"gap total mismatch", func(p *pinball.Pinball) { p.Evictions[1].ToStep = 50 }, "instruction"},
		{"slice pinball with gaps", func(p *pinball.Pinball) { p.Kind = pinball.KindSlice }, "slice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pb := ringPinball()
			tc.mut(pb)
			err := pb.Validate()
			if err == nil {
				t.Fatal("Validate accepted the broken ring pinball")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRingFieldsSurviveSaveLoad(t *testing.T) {
	pb := ringPinball()
	path := filepath.Join(t.TempDir(), "ring.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := pinball.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != pb.ID() {
		t.Fatalf("round trip changed identity: %s vs %s", got.ID(), pb.ID())
	}
	if len(got.Evictions) != 2 || got.Evictions[1] != pb.Evictions[1] {
		t.Errorf("evictions lost: %v", got.Evictions)
	}
	if got.Recipe == nil || got.Recipe.SchedState != pb.Recipe.SchedState || got.Recipe.MeanQ != pb.Recipe.MeanQ {
		t.Errorf("recipe lost: %v", got.Recipe)
	}
	if got.RingBytes != 512 {
		t.Errorf("RingBytes = %d", got.RingBytes)
	}
}

func TestRingIdentityCoversRingFields(t *testing.T) {
	a, b := ringPinball(), ringPinball()
	b.Evictions[0].Hash ^= 1
	if a.ID() == b.ID() {
		t.Error("flipping an eviction hash did not change the pinball identity")
	}
	c := ringPinball()
	c.Recipe.SchedState ^= 1
	if a.ID() == c.ID() {
		t.Error("tampering the recipe did not change the pinball identity")
	}
}

// writeRingJournal hand-builds an interrupted ring journal: recipe frame,
// then three sealed windows — each a checkpoint chunk followed by the
// window-seal frame — with no content chunks and no commit (exactly what a
// crash mid ring recording leaves). It returns the file bytes and the byte
// offset of every frame in order (recipe first).
func writeRingJournal(t testing.TB) ([]byte, []int64) {
	t.Helper()
	base := journalPinball()
	path := filepath.Join(t.TempDir(), "ring.journal")
	provisional := &pinball.Pinball{
		ProgramName: base.ProgramName, Kind: base.Kind,
		State: base.State, CheckpointEvery: base.CheckpointEvery,
	}
	w, err := pinball.NewJournalWriter(path, provisional, false)
	if err != nil {
		t.Fatal(err)
	}
	off := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	var offs []int64
	offs = append(offs, off())
	if err := w.AppendRecipe(ringRecipe()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		from, to := i*30, (i+1)*30
		offs = append(offs, off())
		cp := pinball.Checkpoint{Tid: 0, Seq: to, Idx: to, Step: to, Hash: 0xc0ffee + uint64(i), PC: 10}
		if err := w.AppendChunk(nil, nil, nil, []pinball.Checkpoint{cp}); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off())
		if err := w.AppendWindowSeal(i, from, to, 0xabc0+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	offs = append(offs, off())
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, offs
}

func TestSalvageInterruptedRingJournal(t *testing.T) {
	data, _ := writeRingJournal(t)
	got, rep, err := pinball.SalvageBytes(data)
	if err != nil {
		t.Fatalf("salvage: %v\n%s", err, rep.Summary())
	}
	if rep.Evicted != 3 || !rep.Truncated || rep.CheckpointStep != 90 {
		t.Errorf("report evicted=%d truncated=%v step=%d, want 3 windows anchored at 90",
			rep.Evicted, rep.Truncated, rep.CheckpointStep)
	}
	if got.RegionInstrs != 90 || got.GapInstrs() != 90 || len(got.Quanta) != 0 {
		t.Errorf("salvaged region %d, gaps %d, quanta %d: want a fully evicted 90-step region",
			got.RegionInstrs, got.GapInstrs(), len(got.Quanta))
	}
	if len(got.Checkpoints) != 3 {
		t.Errorf("checkpoints = %d, want all 3", len(got.Checkpoints))
	}
	if got.Recipe == nil || got.EndReason != "salvaged" || got.Failure != nil {
		t.Errorf("recipe=%v end=%q failure=%v", got.Recipe, got.EndReason, got.Failure)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("salvaged ring pinball invalid: %v", err)
	}
	if !strings.Contains(rep.Summary(), "gap bridging") {
		t.Errorf("summary does not explain the recovery:\n%s", rep.Summary())
	}
}

func TestSalvageRingTornFileMatrix(t *testing.T) {
	data, offs := writeRingJournal(t)
	// offs: [0]=recipe, then per window i: [1+2i]=checkpoint chunk,
	// [2+2i]=window seal; [7]=end of file.
	cases := []struct {
		name        string
		cut         int64
		wantWindows int
		wantCps     int
	}{
		// Tear inside the third window's seal frame: the first two sealed
		// windows (and their checkpoints) survive as verifiable evictions.
		{"inside an evicted span's seal", offs[6] + 5, 2, 2},
		// Tear inside the last retained checkpoint chunk: the chunk is lost,
		// and with it the third window's seal that follows it.
		{"at the last retained checkpoint", offs[5] + 5, 2, 2},
		// Tear right after the second seal: clean two-window prefix.
		{"between flush windows", offs[5], 2, 2},
		// Tear inside the very first checkpoint chunk: no window sealed yet.
		{"before any seal", offs[1] + 5, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rep, err := pinball.SalvageBytes(data[:tc.cut])
			if tc.wantWindows == 0 {
				if !errors.Is(err, pinball.ErrUnsalvageable) {
					t.Fatalf("err = %v, want ErrUnsalvageable (no sealed window)", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("salvage: %v\n%s", err, rep.Summary())
			}
			if rep.Evicted != tc.wantWindows {
				t.Errorf("evicted = %d, want %d", rep.Evicted, tc.wantWindows)
			}
			wantRegion := int64(tc.wantWindows) * 30
			if got.RegionInstrs != wantRegion || got.GapInstrs() != wantRegion {
				t.Errorf("region %d gaps %d, want %d fully evicted", got.RegionInstrs, got.GapInstrs(), wantRegion)
			}
			if len(got.Checkpoints) != tc.wantCps {
				t.Errorf("checkpoints = %d, want %d", len(got.Checkpoints), tc.wantCps)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("salvaged pinball invalid: %v", err)
			}
		})
	}
}

func TestSalvageRingCommittedTornManifest(t *testing.T) {
	// Commit a ring journal (content chunk, then the eviction-manifest
	// frame, then the commit frame), and tear inside the manifest. The
	// surviving content chunk has no manifest to prove what it covers, so
	// salvage falls back to the fully evicted form.
	base := journalPinball()
	final := ringPinball()
	path := filepath.Join(t.TempDir(), "ring.journal")
	provisional := &pinball.Pinball{
		ProgramName: base.ProgramName, Kind: base.Kind,
		State: base.State, CheckpointEvery: base.CheckpointEvery,
	}
	w, err := pinball.NewJournalWriter(path, provisional, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRecipe(final.Recipe); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := w.AppendWindowSeal(i, i*30, (i+1)*30, 0xabc0+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	contentOff := st.Size()
	if err := w.AppendChunk(final.Quanta, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(final); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pinball.Load(path); err != nil {
		t.Fatalf("committed ring journal does not load: %v", err)
	}

	// Find the manifest frame (section id 13) after the content chunk and
	// tear a few bytes into it.
	manifestOff := int64(-1)
	for off := contentOff; off < int64(len(data)); {
		id := data[off]
		plen := int64(binary.BigEndian.Uint64(data[off+1 : off+9]))
		if id == 13 {
			manifestOff = off
			break
		}
		off += 13 + plen
	}
	if manifestOff < 0 {
		t.Fatal("no eviction-manifest frame in the committed ring journal")
	}
	got, rep, err := pinball.SalvageBytes(data[:manifestOff+7])
	if err != nil {
		t.Fatalf("salvage: %v\n%s", err, rep.Summary())
	}
	if rep.Evicted != 3 || got.GapInstrs() != 90 || len(got.Quanta) != 0 {
		t.Errorf("evicted=%d gaps=%d quanta=%d, want the fully evicted form (surviving content dropped)",
			rep.Evicted, got.GapInstrs(), len(got.Quanta))
	}
	if err := got.Validate(); err != nil {
		t.Errorf("salvaged pinball invalid: %v", err)
	}
}
