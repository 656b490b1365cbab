package faultinject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pinball"
	"repro/internal/pinplay"
)

// oneShotInputs returns a recording of every pinball kind plus a gapped
// ring recording, keyed by name.
func oneShotInputs(t *testing.T) map[string]*pinball.Pinball {
	t.Helper()
	pbs := map[string]*pinball.Pinball{"ring": makeRingPinball(t)}
	for kind, pb := range makePinballs(t) {
		pbs[string(kind)] = pb
	}
	return pbs
}

// TestOneShotRoundTripIsExact proves Save's encoding loses nothing and is
// deterministic: decoding gives the same pinball identity and schedule,
// and re-encoding the decoded pinball gives the same bytes.
func TestOneShotRoundTripIsExact(t *testing.T) {
	for name, pb := range oneShotInputs(t) {
		data, err := pb.EncodeBytes()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := pinball.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.ID() != pb.ID() {
			t.Errorf("%s: round trip changed the identity: %s != %s", name, got.ID(), pb.ID())
		}
		if !reflect.DeepEqual(got.Quanta, pb.Quanta) {
			t.Errorf("%s: round trip changed the schedule", name)
		}
		again, err := got.EncodeBytes()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded pinball changed its bytes", name)
		}
	}
}

// TestManifestRejectsDroppedAndDuplicatedFrames cuts out, and separately
// doubles, every single non-meta frame of a recorded journal and of the
// one-shot encoding of every kind. The meta's frame manifest must make
// Decode fail ErrCorrupt for each. Dropping the commit marker is the one
// exception: that file is indistinguishable from a tear and must fail
// ErrTruncated.
func TestManifestRejectsDroppedAndDuplicatedFrames(t *testing.T) {
	prog := compileT(t)
	cfg := logConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "rec.journal")
	cfg.JournalEvery = 64
	cfg.JournalNoSync = true
	if _, err := pinplay.Log(prog, cfg, regionSpec()); err != nil {
		t.Fatalf("log: %v", err)
	}
	journal, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"journal": journal}
	for name, pb := range oneShotInputs(t) {
		if inputs["one-shot "+name], err = pb.EncodeBytes(); err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			secs := sections(data)
			var chunks int
			for i, s := range secs {
				if s.ID == 1 { // meta frames carry the manifest
					continue
				}
				if s.ID == 11 {
					chunks++
				}
				frame := data[s.Off : s.Off+s.Len]
				rest := data[s.Off+s.Len:]
				dropped := append(append([]byte(nil), data[:s.Off]...), rest...)
				doubled := append(append(append([]byte(nil), data[:s.Off+s.Len]...), frame...), rest...)
				wantDrop := pinball.ErrCorrupt
				if s.ID == 12 {
					wantDrop = pinball.ErrTruncated
				}
				if _, err := pinball.Decode(dropped); !errors.Is(err, wantDrop) {
					t.Errorf("frame #%d (id %d) dropped: err = %v, want %v", i+1, s.ID, err, wantDrop)
				}
				if _, err := pinball.Decode(doubled); !errors.Is(err, pinball.ErrCorrupt) {
					t.Errorf("frame #%d (id %d) duplicated: err = %v, want ErrCorrupt", i+1, s.ID, err)
				}
			}
			if name == "journal" && chunks < 5 {
				t.Fatalf("journal has only %d checkpoint chunks", chunks)
			}
		})
	}
}
