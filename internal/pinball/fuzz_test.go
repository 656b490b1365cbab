package pinball_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pinball"
)

// FuzzDecode feeds arbitrary bytes to Decode and SalvageBytes. Each must
// return a typed sentinel error or a pinball that passes Validate, and
// never panic. The seeds are the one-shot encodings of the sample
// pinballs, recorded journals (committed, interrupted and ring), and
// every corruptor and crash-point variant of them.
func FuzzDecode(f *testing.F) {
	var files [][]byte
	for _, pb := range []*pinball.Pinball{samplePinball(), journalPinball(), ringPinball()} {
		data, err := pb.EncodeBytes()
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, data)
	}
	dir := f.TempDir()
	for i, commit := range []bool{true, false} {
		path := filepath.Join(dir, fmt.Sprintf("j%d.pinball", i))
		writeJournal(f, path, journalPinball(), commit)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, data)
	}
	ring, _ := writeRingJournal(f)
	files = append(files, ring)
	for _, data := range files {
		f.Add(data)
		for _, c := range faultinject.FileCorruptors() {
			if bad, ok := c.Apply(data); ok {
				f.Add(bad)
			}
		}
		for _, cp := range faultinject.CrashPoints(data) {
			f.Add(faultinject.TornCopy(data, cp))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := pinball.Decode(data); err != nil {
			if !errors.Is(err, pinball.ErrNotPinball) && !errors.Is(err, pinball.ErrVersionSkew) &&
				!errors.Is(err, pinball.ErrTruncated) && !errors.Is(err, pinball.ErrCorrupt) {
				t.Fatalf("Decode: untyped error %v", err)
			}
		} else if err := p.Validate(); err != nil {
			t.Fatalf("Decode returned an invalid pinball: %v", err)
		}
		p, rep, err := pinball.SalvageBytes(data)
		if rep == nil {
			t.Fatal("SalvageBytes returned no report")
		}
		if err != nil {
			if !errors.Is(err, pinball.ErrUnsalvageable) {
				t.Fatalf("SalvageBytes: untyped error %v", err)
			}
		} else if err := p.Validate(); err != nil {
			t.Fatalf("SalvageBytes returned an invalid pinball: %v", err)
		}
	})
}
