package vm

import (
	"bytes"
	"errors"
	"testing"
)

// TestImageGobEncoding checks that an image round-trips through its gob
// encoding, that equal images encode to equal bytes, and that a cut
// encoding is refused.
func TestImageGobEncoding(t *testing.T) {
	img := Image{-3: {1, -1, 1 << 62}, 0: {}, 7: {0, 0, 5}}
	for pn := int64(100); pn < 120; pn++ {
		img[pn] = []int64{pn, -pn}
	}
	data, err := img.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if again, _ := img.GobEncode(); !bytes.Equal(again, data) {
			t.Fatalf("encode %d of the same image gave different bytes", i+2)
		}
	}
	var got Image
	if err := got.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(img) || !got.Equal(img) {
		t.Fatalf("round trip gave %d pages, want %d equal ones", len(got), len(img))
	}
	for _, cut := range []int{1, 2, len(data) - 1} {
		if err := got.GobDecode(data[:cut]); !errors.Is(err, errBadImage) {
			t.Errorf("encoding cut to %d bytes: err = %v, want errBadImage", cut, err)
		}
	}
}
