package vm

// Paged, word-addressed shared memory. Pages materialise on first touch
// and read as zero, so a fresh Memory is ready to use.

import (
	"encoding/binary"
	"errors"
	"slices"
)

const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]int64

// Memory is the flat word-addressed address space shared by all threads of
// a machine.
type Memory struct {
	pages map[int64]*page
}

// NewMemory returns an empty (all-zero) memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[int64]*page)}
}

// Read returns the word at addr. Unmapped memory reads as zero.
func (m *Memory) Read(addr int64) int64 {
	p, ok := m.pages[addr>>pageShift]
	if !ok {
		return 0
	}
	return p[addr&pageMask]
}

// Pages returns the number of resident (touched) pages; Limits.MaxPages
// is enforced against this count.
func (m *Memory) Pages() int { return len(m.pages) }

// Write stores v at addr, materialising the page if needed.
func (m *Memory) Write(addr int64, v int64) {
	pn := addr >> pageShift
	p, ok := m.pages[pn]
	if !ok {
		p = new(page)
		m.pages[pn] = p
	}
	p[addr&pageMask] = v
}

// Image is a compact serialisable snapshot of memory: page number to page
// contents. It is the form stored inside pinballs.
type Image map[int64][]int64

// GobEncode writes the image as (page number, length, words) varints in
// ascending page order. Gob writes a plain map in iteration order, so
// equal images, and the pinballs holding them, would otherwise encode to
// different bytes.
func (img Image) GobEncode() ([]byte, error) {
	pns := make([]int64, 0, len(img))
	for pn := range img {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	var buf []byte
	for _, pn := range pns {
		buf = binary.AppendVarint(buf, pn)
		buf = binary.AppendUvarint(buf, uint64(len(img[pn])))
		for _, w := range img[pn] {
			buf = binary.AppendVarint(buf, w)
		}
	}
	return buf, nil
}

var errBadImage = errors.New("vm: malformed memory image encoding")

// GobDecode rebuilds an image written by GobEncode.
func (img *Image) GobDecode(data []byte) error {
	m := Image{}
	for len(data) > 0 {
		pn, n := binary.Varint(data)
		if n <= 0 {
			return errBadImage
		}
		data = data[n:]
		count, n := binary.Uvarint(data)
		// Every word takes at least one byte, which bounds the allocation.
		if n <= 0 || count > uint64(len(data)-n) {
			return errBadImage
		}
		data = data[n:]
		words := make([]int64, count)
		for i := range words {
			if words[i], n = binary.Varint(data); n <= 0 {
				return errBadImage
			}
			data = data[n:]
		}
		m[pn] = words
	}
	*img = m
	return nil
}

// Snapshot deep-copies the touched pages into an Image.
func (m *Memory) Snapshot() Image {
	img := make(Image, len(m.pages))
	for pn, p := range m.pages {
		cp := make([]int64, pageWords)
		copy(cp, p[:])
		img[pn] = cp
	}
	return img
}

// Restore replaces the memory contents with the image.
func (m *Memory) Restore(img Image) {
	m.pages = make(map[int64]*page, len(img))
	for pn, words := range img {
		p := new(page)
		copy(p[:], words)
		m.pages[pn] = p
	}
}

// Equal reports whether two images describe identical memory contents,
// treating absent pages as zero.
func (a Image) Equal(b Image) bool {
	zero := func(ws []int64) bool {
		for _, w := range ws {
			if w != 0 {
				return false
			}
		}
		return true
	}
	for pn, ws := range a {
		bw, ok := b[pn]
		if !ok {
			if !zero(ws) {
				return false
			}
			continue
		}
		for i := range ws {
			if ws[i] != bw[i] {
				return false
			}
		}
	}
	for pn, ws := range b {
		if _, ok := a[pn]; !ok && !zero(ws) {
			return false
		}
	}
	return true
}
