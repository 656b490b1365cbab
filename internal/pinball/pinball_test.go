package pinball_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/vm"
)

func samplePinball() *pinball.Pinball {
	mem := vm.NewMemory()
	mem.Write(0, 42)
	mem.Write(5000, -7)
	return &pinball.Pinball{
		ProgramName: "sample",
		Kind:        pinball.KindRegion,
		State: &vm.MachineState{
			Mem:      mem.Snapshot(),
			Threads:  []vm.ThreadState{{ID: 0, PC: 10, Count: 99}},
			HeapNext: vm.HeapBase + 16,
		},
		Quanta:       []vm.Quantum{{Tid: 0, Count: 50}, {Tid: 1, Count: 20}},
		Syscalls:     []vm.SyscallRecord{{Tid: 0, Num: isa.SysRead, Ret: 5}},
		OrderEdges:   []vm.OrderEdge{{FromTid: 0, FromIdx: 3, ToTid: 1, ToIdx: 9, Addr: 12}},
		RegionInstrs: 70,
		MainInstrs:   50,
		EndReason:    "length",
		Exclusions:   []pinball.Exclusion{{Tid: 0, StartPC: 4, StartInstance: 1, EndPC: 9, EndInstance: 2, FromIdx: 10, ToIdx: 20}},
		Injections: []pinball.Injection{{
			AtStep: 7, Tid: 0, NewPC: 9, NewCount: 20,
			Mem: []pinball.MemWrite{{Addr: 3, Val: 4}},
		}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pb := samplePinball()
	path := filepath.Join(t.TempDir(), "s.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := pinball.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgramName != pb.ProgramName || got.Kind != pb.Kind ||
		got.RegionInstrs != pb.RegionInstrs || got.EndReason != pb.EndReason {
		t.Error("metadata lost in round trip")
	}
	if len(got.Quanta) != 2 || got.Quanta[1] != pb.Quanta[1] {
		t.Error("quanta lost")
	}
	if len(got.Syscalls) != 1 || got.Syscalls[0] != pb.Syscalls[0] {
		t.Error("syscalls lost")
	}
	if len(got.OrderEdges) != 1 || got.OrderEdges[0] != pb.OrderEdges[0] {
		t.Error("order edges lost")
	}
	if len(got.Injections) != 1 || got.Injections[0].NewCount != 20 {
		t.Error("injections lost")
	}
	if !got.State.Mem.Equal(pb.State.Mem) {
		t.Error("memory image lost")
	}
	if got.State.Threads[0].Count != 99 {
		t.Error("thread state lost")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := pinball.Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(bad, []byte("not a pinball"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pinball.Load(bad); err == nil {
		t.Error("garbage file accepted")
	}
}

func TestEncodedSizeMatchesFile(t *testing.T) {
	pb := samplePinball()
	sz, err := pb.EncodedSize()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != sz {
		t.Errorf("EncodedSize %d vs file %d", sz, st.Size())
	}
}

func TestTotalQuantumInstrs(t *testing.T) {
	pb := samplePinball()
	if got := pb.TotalQuantumInstrs(); got != 70 {
		t.Errorf("TotalQuantumInstrs = %d, want 70", got)
	}
}

func TestExclusionString(t *testing.T) {
	e := pinball.Exclusion{Tid: 2, StartPC: 4, StartInstance: 1, EndPC: 9, EndInstance: 3}
	if got := e.String(); got != "[4:1:2, 9:3:2)" {
		t.Errorf("String = %q", got)
	}
}

func TestQuantaSumProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		pb := &pinball.Pinball{}
		var want int64
		for i, c := range counts {
			pb.Quanta = append(pb.Quanta, vm.Quantum{Tid: i % 4, Count: int64(c)})
			want += int64(c)
		}
		return pb.TotalQuantumInstrs() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadRejectsWrongVersionAndMagic(t *testing.T) {
	dir := t.TempDir()
	// Valid file, then corrupt the version byte.
	pb := samplePinball()
	path := filepath.Join(dir, "v.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	version := data[4]
	// 99 is from the future; 1, 2 and 3 are the retired unframed,
	// whole-section and manifest-less journal formats.
	for _, v := range []byte{99, 1, 2, 3} {
		data[4] = v // version byte
		bad := filepath.Join(dir, "badver.pinball")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := pinball.Load(bad); !errors.Is(err, pinball.ErrVersionSkew) {
			t.Errorf("version %d: err = %v, want ErrVersionSkew", v, err)
		}
		if _, _, err := pinball.SalvageBytes(data); !errors.Is(err, pinball.ErrUnsalvageable) {
			t.Errorf("version %d: salvage err = %v, want ErrUnsalvageable", v, err)
		}
	}
	// Too short to even hold the magic.
	tiny := filepath.Join(dir, "tiny")
	if err := os.WriteFile(tiny, []byte("DR"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pinball.Load(tiny); !errors.Is(err, pinball.ErrNotPinball) {
		t.Errorf("2-byte file: err = %v, want ErrNotPinball", err)
	}
	// Valid header, body cut mid-section.
	data[4] = version
	cut := filepath.Join(dir, "cut.pinball")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pinball.Load(cut); !errors.Is(err, pinball.ErrTruncated) {
		t.Errorf("half file: err = %v, want ErrTruncated", err)
	}
	// Wrong magic.
	data[0] = 'X'
	mag := filepath.Join(dir, "badmagic.pinball")
	if err := os.WriteFile(mag, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pinball.Load(mag); !errors.Is(err, pinball.ErrNotPinball) {
		t.Errorf("wrong magic: err = %v, want ErrNotPinball", err)
	}
}

func TestLoadErrorsNameTheFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "garbage.pinball")
	if err := os.WriteFile(bad, []byte("definitely not a pinball"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := pinball.Load(bad)
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if !strings.Contains(err.Error(), "garbage.pinball") {
		t.Errorf("Load error %q does not name the file", err)
	}
}

func TestCheckpointsRoundTrip(t *testing.T) {
	pb := samplePinball()
	pb.CheckpointEvery = 64
	pb.Checkpoints = []pinball.Checkpoint{
		{Tid: 0, Seq: 64, Idx: 64, Step: 64, Hash: 0xfeedface, PC: 10},
		{Tid: 1, Seq: 64, Idx: 64, Step: 70, Hash: 0xdeadbeef, PC: 20},
	}
	path := filepath.Join(t.TempDir(), "ck.pinball")
	if err := pb.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := pinball.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointEvery != 64 || len(got.Checkpoints) != 2 ||
		got.Checkpoints[1] != pb.Checkpoints[1] {
		t.Errorf("checkpoints lost in round trip: every=%d %v",
			got.CheckpointEvery, got.Checkpoints)
	}
}
