package pinplay

import (
	"errors"
	"testing"

	"repro/internal/pinball"
)

func TestCheckpointsRecordedAtCadence(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: 16}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if pb.CheckpointEvery != 16 {
		t.Fatalf("CheckpointEvery = %d, want 16", pb.CheckpointEvery)
	}
	if len(pb.Checkpoints) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	lastSeq := map[int]int64{}
	total := pb.TotalQuantumInstrs()
	for _, cp := range pb.Checkpoints {
		if cp.Seq%16 != 0 || cp.Seq <= 0 {
			t.Errorf("checkpoint Seq %d is not a positive multiple of the cadence", cp.Seq)
		}
		if cp.Seq <= lastSeq[cp.Tid] {
			t.Errorf("thread %d checkpoint Seq %d not increasing", cp.Tid, cp.Seq)
		}
		lastSeq[cp.Tid] = cp.Seq
		if cp.Step <= 0 || cp.Step > total {
			t.Errorf("checkpoint Step %d outside region of %d", cp.Step, total)
		}
	}
}

func TestReplayVerifiesEveryCheckpoint(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: 16}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	_, rep, err := ReplayWith(prog, pb, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Checked != len(pb.Checkpoints) {
		t.Fatalf("checked %d of %d checkpoints", rep.Checked, len(pb.Checkpoints))
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("clean replay reported divergences: %v", rep.Divergences)
	}
}

func TestUnreachedCheckpointDetected(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: 16}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	// A checkpoint thread 0 never reaches, but structurally valid: the
	// replay must notice it fell short of the recorded execution.
	var last pinball.Checkpoint
	for _, cp := range pb.Checkpoints {
		if cp.Tid == 0 {
			last = cp
		}
	}
	if last.Seq == 0 {
		t.Fatal("no thread-0 checkpoint to extend")
	}
	bogus := last
	bogus.Seq += pb.CheckpointEvery
	bogus.Idx += pb.CheckpointEvery
	bogus.Step = pb.TotalQuantumInstrs()
	pb.Checkpoints = append(pb.Checkpoints, bogus)
	if err := pb.Validate(); err != nil {
		t.Fatalf("bogus checkpoint should pass structural validation: %v", err)
	}

	_, _, err = ReplayWith(prog, pb, ReplayOptions{})
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("replay error = %v, want DivergenceError", err)
	}
	if de.Div.GotPC != -1 {
		t.Errorf("unreached checkpoint should report GotPC -1, got %d", de.Div.GotPC)
	}
	if !errors.Is(err, ErrReplay) {
		t.Error("DivergenceError does not wrap ErrReplay")
	}
}

func TestCheckpointingDisabled(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 3, MeanQuantum: 31, CheckpointEvery: -1}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	if pb.CheckpointEvery != 0 || len(pb.Checkpoints) != 0 {
		t.Fatalf("disabled checkpointing still recorded: every=%d n=%d",
			pb.CheckpointEvery, len(pb.Checkpoints))
	}
	_, rep, err := ReplayWith(prog, pb, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Checked != 0 {
		t.Fatalf("replay checked %d checkpoints on a checkpoint-free pinball", rep.Checked)
	}
}

func TestRelogCarriesSliceCheckpoints(t *testing.T) {
	prog := compileT(t, workerSrc)
	pb, err := Log(prog, LogConfig{Seed: 5, MeanQuantum: 17, CheckpointEvery: 8}, RegionSpec{})
	if err != nil {
		t.Fatalf("log: %v", err)
	}
	// Exclude a small window of thread 1's execution.
	ex := []pinball.Exclusion{{Tid: 1, FromIdx: 40, ToIdx: 60}}
	spb, err := Relog(prog, pb, ex)
	if err != nil {
		t.Fatalf("relog: %v", err)
	}
	if spb.CheckpointEvery != 8 || len(spb.Checkpoints) == 0 {
		t.Fatalf("slice pinball checkpoints: every=%d n=%d", spb.CheckpointEvery, len(spb.Checkpoints))
	}
	_, rep, err := ReplaySliceWith(prog, spb, ReplayOptions{})
	if err != nil {
		t.Fatalf("slice replay: %v", err)
	}
	if rep.Checked != len(spb.Checkpoints) {
		t.Fatalf("slice replay checked %d of %d checkpoints", rep.Checked, len(spb.Checkpoints))
	}
}
