package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeManifest(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), manifestName)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestManifestReplay(t *testing.T) {
	path := writeManifest(t,
		manifestHeader,
		`{"op":"add","entry":{"digest":"aaaa000000000000","size":10,"chunks":[{"digest":"c1c1c1c1c1c1c1c1","size":10}],"added_unix":100,"touch_unix":100}}`,
		`{"op":"add","entry":{"digest":"bbbb000000000000","size":20,"chunks":[],"added_unix":101,"touch_unix":101}}`,
		`{"op":"pin","digest":"aaaa000000000000"}`,
		`{"op":"touch","digest":"bbbb000000000000","unix":500}`,
		`{"op":"del","digest":"bbbb000000000000"}`,
		`{"op":"touch","digest":"bbbb000000000000","unix":900}`, // after del: no-op
	)
	m, err := loadManifest(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if m.torn {
		t.Fatal("clean manifest reported torn")
	}
	if len(m.entries) != 1 {
		t.Fatalf("%d entries, want 1", len(m.entries))
	}
	e := m.entries["aaaa000000000000"]
	if e == nil || !e.Pinned || e.Size != 10 || len(e.Chunks) != 1 {
		t.Fatalf("entry: %+v", e)
	}
}

func TestManifestMissingIsEmpty(t *testing.T) {
	m, err := loadManifest(filepath.Join(t.TempDir(), "absent.db"))
	if err != nil || len(m.entries) != 0 || m.torn {
		t.Fatalf("missing manifest: %+v, %v", m, err)
	}
}

// TestManifestTornTailRecovered: a crash mid-append leaves a partial
// final line; the intact prefix must load and the tear be reported.
func TestManifestTornTailRecovered(t *testing.T) {
	full := strings.Join([]string{
		manifestHeader,
		`{"op":"add","entry":{"digest":"aaaa000000000000","size":10,"chunks":[],"added_unix":1,"touch_unix":1}}`,
		`{"op":"add","entry":{"digest":"bbbb000000000000","size":20,"chunks":[],"added_unix":2,"touch_unix":2}}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), manifestName)
	// Chop at several points inside the final record, including exactly at
	// the missing-newline boundary (cut=1: the record itself is whole, so
	// recovery keeps it — only the tear is flagged).
	for _, cut := range []int{1, 10, 40} {
		torn := full[:len(full)-cut]
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(path)
		if err != nil {
			t.Fatalf("cut %d: load: %v", cut, err)
		}
		if !m.torn {
			t.Fatalf("cut %d: tear not reported", cut)
		}
		if m.entries["aaaa000000000000"] == nil {
			t.Fatalf("cut %d: intact prefix not recovered: %d entries", cut, len(m.entries))
		}
		if cut > 1 && len(m.entries) != 1 {
			t.Fatalf("cut %d: torn record survived: %d entries", cut, len(m.entries))
		}
	}
}

// TestManifestMidFileCorruptionTyped: damage that is not a torn tail is
// rejected with ErrManifestCorrupt, never silently skipped.
func TestManifestMidFileCorruptionTyped(t *testing.T) {
	path := writeManifest(t,
		manifestHeader,
		`{"op":"add","entry":{"digest":"aaaa000000000000","size":10,"chunks":[],"added_unix":1,"touch_unix":1}}`,
		`{"op":"add","en%%%GARBAGE%%%`,
		`{"op":"add","entry":{"digest":"bbbb000000000000","size":20,"chunks":[],"added_unix":2,"touch_unix":2}}`,
	)
	if _, err := loadManifest(path); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("mid-file garbage: %v, want ErrManifestCorrupt", err)
	}
}

func TestManifestBadHeaderTyped(t *testing.T) {
	path := writeManifest(t,
		`{"not-a-store":true}`,
		`{"op":"add","entry":{"digest":"aaaa000000000000","size":10,"chunks":[],"added_unix":1,"touch_unix":1}}`,
	)
	if _, err := loadManifest(path); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("bad header: %v, want ErrManifestCorrupt", err)
	}
}

func TestManifestUnknownOpMidFileTyped(t *testing.T) {
	path := writeManifest(t,
		manifestHeader,
		`{"op":"frobnicate","digest":"aaaa000000000000"}`,
		`{"op":"add","entry":{"digest":"bbbb000000000000","size":20,"chunks":[],"added_unix":2,"touch_unix":2}}`,
	)
	if _, err := loadManifest(path); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("unknown op: %v, want ErrManifestCorrupt", err)
	}
}

func TestManifestPrefixIteration(t *testing.T) {
	m := &manifest{entries: map[string]*Entry{}}
	for _, d := range []string{"ab00000000000000", "ab11111111111111", "cd00000000000000"} {
		applyRecord(m, &record{Op: "add", Entry: &Entry{Digest: d}})
	}
	got := m.list("ab")
	if len(got) != 2 || got[0].Digest != "ab00000000000000" || got[1].Digest != "ab11111111111111" {
		t.Fatalf("prefix ab: %+v", got)
	}
	if len(m.list("")) != 3 {
		t.Fatal("empty prefix should list all")
	}
	if len(m.list("ff")) != 0 {
		t.Fatal("no-match prefix should be empty")
	}
}

// TestManifestCompactRoundTrip: compaction folds pins/touches into the
// add records and replays to the identical index.
func TestManifestCompactRoundTrip(t *testing.T) {
	path := writeManifest(t,
		manifestHeader,
		`{"op":"add","entry":{"digest":"aaaa000000000000","size":10,"chunks":[{"digest":"c1c1c1c1c1c1c1c1","size":10}],"added_unix":1,"touch_unix":1}}`,
		`{"op":"pin","digest":"aaaa000000000000"}`,
		`{"op":"touch","digest":"aaaa000000000000","unix":77}`,
	)
	m, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := m.compactBytes()
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(t.TempDir(), manifestName)
	if err := os.WriteFile(path2, compact, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := loadManifest(path2)
	if err != nil {
		t.Fatalf("compacted manifest does not load: %v", err)
	}
	e := m2.entries["aaaa000000000000"]
	if e == nil || !e.Pinned || e.TouchUnix != 77 || len(e.Chunks) != 1 {
		t.Fatalf("compaction lost state: %+v", e)
	}
}

// TestAppendAfterTornTail: Open recovers past a torn manifest tail, and
// the first append afterwards must cut the fragment (or terminate a
// tail that parsed whole but lost its newline) instead of gluing the
// new line onto it — otherwise the next Open fails ErrManifestCorrupt.
func TestAppendAfterTornTail(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tail  func(first string) string
		touch int64 // the first entry's touch time after the second put
	}{
		{"fragment", func(string) string { return `{"op":"ad` }, 100},
		{"whole record without newline", func(first string) string {
			return `{"op":"touch","digest":"` + first + `","unix":150}`
		}, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			s, err := Open(root)
			if err != nil {
				t.Fatal(err)
			}
			first := putFake(t, s, "first", 100)
			f, err := os.OpenFile(s.manifestPath(), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail(first)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := Open(root)
			if err != nil {
				t.Fatalf("open past the torn tail: %v", err)
			}
			second := putFake(t, s2, "second", 200)

			s3, err := Open(root)
			if err != nil {
				t.Fatalf("reopen after appending to a torn manifest: %v", err)
			}
			if _, err := s3.Verify(); err != nil {
				t.Fatalf("verify after the append: %v", err)
			}
			for _, d := range []string{first, second} {
				if _, err := s3.Stat(d); err != nil {
					t.Fatalf("stat %s: %v", d, err)
				}
			}
			if info, _ := s3.Stat(first); info.TouchUnix != tc.touch {
				t.Fatalf("first entry touched at %d, want %d", info.TouchUnix, tc.touch)
			}
		})
	}
}

// FuzzManifest: loadManifest returns success or an ErrManifestCorrupt
// error, never a panic. A manifest that loads must survive both writes
// the store makes to it: appending one record through appendRecords
// (which cuts a torn tail first) reloads to the loaded entries plus the
// new one, and compactBytes reloads to the same entries, untorn.
func FuzzManifest(f *testing.F) {
	const (
		a = `{"op":"add","entry":{"digest":"aaaa000000000000","size":10,"chunks":[{"digest":"c1c1c1c1c1c1c1c1","size":10}],"added_unix":1,"touch_unix":1}}`
		b = `{"op":"add","entry":{"digest":"bbbb000000000000","size":20,"chunks":[],"added_unix":2,"touch_unix":2}}`
		// The store corruptor's duplicate-digest collision: a later add
		// re-claims a's digest with a doubled chunk list.
		collide = `{"op":"add","entry":{"digest":"aaaa000000000000","size":20,"chunks":[{"digest":"c1c1c1c1c1c1c1c1","size":10},{"digest":"c1c1c1c1c1c1c1c1","size":10}],"added_unix":1,"touch_unix":1}}`
	)
	clean := strings.Join([]string{manifestHeader, a, b,
		`{"op":"pin","digest":"aaaa000000000000"}`,
		`{"op":"touch","digest":"bbbb000000000000","unix":500}`,
		`{"op":"del","digest":"bbbb000000000000"}`}, "\n") + "\n"
	for _, seed := range []string{
		"",
		clean,
		clean[:len(clean)-3], // the store corruptor's truncated tail
		clean[:len(clean)-1], // whole final record, newline lost
		manifestHeader + "\n" + a + "\n" + collide + "\n",
		manifestHeader + "\n" + a + "\n" + `{"op":"add","en%%%GARBAGE%%%` + "\n" + b + "\n",
		manifestHeader + "\n" + `{"op":"frobnicate","digest":"aaaa000000000000"}` + "\n" + b + "\n",
		`{"not-a-store":true}` + "\n" + a + "\n",
		`{"drst`,
		manifestHeader + "\r\n" + a + "\r\n" + `{"op":"ad`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		path := filepath.Join(root, manifestName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(path)
		if err != nil {
			if !errors.Is(err, ErrManifestCorrupt) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		loaded := make(map[string]Entry, len(m.entries))
		for d, e := range m.entries {
			loaded[d] = *e
		}
		sameEntries := func(what string, got map[string]*Entry, want map[string]Entry) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
			}
			for d, e := range want {
				if g := got[d]; g == nil || !reflect.DeepEqual(*g, e) {
					t.Fatalf("%s: entry %q = %+v, want %+v", what, d, g, e)
				}
			}
		}

		compact, err := m.compactBytes()
		if err != nil {
			t.Fatal(err)
		}
		cpath := filepath.Join(root, "compact.db")
		if err := os.WriteFile(cpath, compact, 0o644); err != nil {
			t.Fatal(err)
		}
		mc, err := loadManifest(cpath)
		if err != nil || mc.torn {
			t.Fatalf("compacted manifest: torn=%v, %v", mc != nil && mc.torn, err)
		}
		sameEntries("compacted", mc.entries, loaded)

		added := Entry{Digest: "ffff000000000000", Size: 1, Chunks: []Chunk{{Digest: "f1f1f1f1f1f1f1f1", Size: 1}}, AddedUnix: 9, TouchUnix: 9}
		s := &Store{root: root, man: m}
		if err := s.appendRecords(&record{Op: "add", Entry: &added}); err != nil {
			t.Fatal(err)
		}
		m2, err := loadManifest(path)
		if err != nil || m2.torn {
			t.Fatalf("reload after append: torn=%v, %v", m2 != nil && m2.torn, err)
		}
		loaded[added.Digest] = added
		sameEntries("after append", m2.entries, loaded)
	})
}
