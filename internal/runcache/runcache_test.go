package runcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string
	Bytes int64
	Serie []float64
}

func testStore(t *testing.T, version int) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cache"), version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	type material struct {
		Workload string
		Scale    int64
	}
	a, err := Key(material{"TS", 4096})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key(material{"TS", 4096})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical material hashed differently: %s vs %s", a, b)
	}
	c, _ := Key(material{"TS", 8192})
	if a == c {
		t.Error("different material collided")
	}
	if len(a) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", a)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t, 1)
	in := payload{Name: "TS", Bytes: 1 << 30, Serie: []float64{1.5, 2.25, 0}}
	key, _ := Key(in)
	var out payload
	if s.Get(key, &out) {
		t.Fatal("hit before Put")
	}
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	if !s.Get(key, &out) {
		t.Fatal("miss after Put")
	}
	if out.Name != in.Name || out.Bytes != in.Bytes || len(out.Serie) != 3 || out.Serie[1] != 2.25 {
		t.Errorf("round trip mangled payload: %+v", out)
	}
	if entries, err := filepath.Glob(filepath.Join(s.dir, "*.json")); err != nil || len(entries) != 1 {
		t.Errorf("store holds %d entries (%v), want 1", len(entries), err)
	}
}

func TestTruncatedEntryIsAMissAndRewritable(t *testing.T) {
	s := testStore(t, 1)
	in := payload{Name: "AGG", Bytes: 42}
	key, _ := Key(in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-file, as a crashed writer without atomic rename would.
	full, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(key), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(key, &out) {
		t.Fatal("truncated entry served as a hit")
	}
	if err := s.Put(key, in); err != nil {
		t.Fatalf("rewrite over truncated entry: %v", err)
	}
	if !s.Get(key, &out) || out.Bytes != 42 {
		t.Errorf("rewritten entry unreadable: %+v", out)
	}
}

func TestSchemaVersionMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Name: "KM"}
	key, _ := Key(in)
	if err := old.Put(key, in); err != nil {
		t.Fatal(err)
	}
	cur, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if cur.Get(key, &out) {
		t.Fatal("version-1 entry served to a version-2 store")
	}
	// And the new version's Put claims the slot without complaint.
	if err := cur.Put(key, in); err != nil {
		t.Fatal(err)
	}
	if !cur.Get(key, &out) {
		t.Error("rewritten entry unreadable")
	}
	if old.Get(key, &out) {
		t.Error("version-2 entry served to the version-1 store")
	}
}

func TestGarbageAndEmptyEntriesAreMisses(t *testing.T) {
	s := testStore(t, 1)
	key, _ := Key("anything")
	for name, content := range map[string]string{
		"empty":                 "",
		"garbage":               "not json at all {{{",
		"valid-but-wrong-shape": `[1,2,3]`,
		"no-payload":            `{"version":1,"key":"` + key + `"}`,
	} {
		if err := os.WriteFile(s.Path(key), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		if s.Get(key, &out) {
			t.Errorf("%s entry served as a hit", name)
		}
	}
}

func TestKeyFieldMismatchIsAMiss(t *testing.T) {
	// An entry copied or renamed to another key's slot must not be served:
	// the envelope's recorded key disagrees with the filename's.
	s := testStore(t, 1)
	in := payload{Name: "PR"}
	keyA, _ := Key("a")
	keyB, _ := Key("b")
	if err := s.Put(keyA, in); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(s.Path(keyA))
	if err := os.WriteFile(s.Path(keyB), b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(keyB, &out) {
		t.Error("entry filed under the wrong key served as a hit")
	}
}

func TestPayloadTypeMismatchIsAMiss(t *testing.T) {
	s := testStore(t, 1)
	key, _ := Key("k")
	if err := s.Put(key, map[string]string{"Bytes": "not-a-number"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(key, &out) {
		t.Error("payload that does not fit the target type served as a hit")
	}
}

func TestPutLeavesNoTempDebrisOnSuccess(t *testing.T) {
	s := testStore(t, 1)
	key, _ := Key("x")
	if err := s.Put(key, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Error("want error for empty dir")
	}
}

func TestEnvelopeIsPlainJSON(t *testing.T) {
	// The on-disk format is documented as inspectable JSON; pin that.
	s := testStore(t, 7)
	key, _ := Key("k")
	if err := s.Put(key, payload{Name: "TS"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Version int             `json:"version"`
		Key     string          `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("entry is not plain JSON: %v", err)
	}
	if env.Version != 7 || env.Key != key || len(env.Payload) == 0 {
		t.Errorf("envelope = %+v", env)
	}
}

// envelope is how Put framed an entry until it wrote the frame around the
// payload itself: json.Marshal of this struct, re-scanning the payload.
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// TestPutWritesTheEnvelopeBytes: an entry's file is byte for byte what
// json.Marshal of the envelope wrote, for strings json escapes (HTML
// characters, U+2028, invalid UTF-8, quotes) too, so entries written either
// way hit.
func TestPutWritesTheEnvelopeBytes(t *testing.T) {
	s := testStore(t, 12)
	for _, in := range []any{
		payload{Name: "TS", Bytes: 1 << 40, Serie: []float64{0.1, 1e-9, 3}},
		payload{Name: "<a href=\"x\">&amp;</a> \u2028 \xff \\ \t"},
		map[string]any{"<key>": []string{"&", "\u2029"}, "nil": nil},
		nil,
	} {
		key, _ := Key(in)
		if err := s.Put(key, in); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		p, _ := json.Marshal(in)
		want, _ := json.Marshal(envelope{Version: 12, Key: key, Payload: p})
		if string(got) != string(want) {
			t.Errorf("Put(%v) wrote\n%s\nwant\n%s", in, got, want)
		}
	}
}
