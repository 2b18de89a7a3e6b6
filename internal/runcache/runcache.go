// Package runcache is a versioned, content-addressed on-disk store for
// experiment results. Entries are keyed by a hash of the full run
// configuration (workload, factors, testbed options, schema version) and
// hold one JSON payload each, so repeat invocations of the characterization
// suite can skip cells that already executed under an identical
// configuration.
//
// The store is deliberately forgiving: any entry that cannot be proven valid
// — missing, truncated, unparsable, written by a different schema version,
// or filed under the wrong key — is treated as a cache miss, never an error.
// A subsequent Put simply rewrites it. Writes go through a temp file and an
// atomic rename, so a crashed or interrupted writer can leave at worst a
// stale temp file, never a half-written entry under a live key.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is one cache directory. The zero value is not usable; create with
// Open. A Store is safe for concurrent use by multiple goroutines (each
// operation touches one file, and writes are atomic renames), though two
// processes racing a Put on the same key simply last-write-wins with either
// of the two equivalent payloads.
type Store struct {
	dir     string
	version int
}

// Open creates (if needed) and returns the store rooted at dir. version is
// the caller's result-schema version: entries written under any other
// version are invisible to this store.
func Open(dir string, version int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &Store{dir: dir, version: version}, nil
}

// Key derives the content address for a run configuration: the SHA-256 of
// the canonical JSON encoding of material. Callers should include every
// input that can change the result (and a schema version) in material;
// encoding/json's deterministic struct-field ordering makes the hash stable
// across processes.
func Key(material any) (string, error) {
	b, err := json.Marshal(material)
	if err != nil {
		return "", fmt.Errorf("runcache: keying: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// header returns an entry's bytes up to its payload P, with room for P and
// the closing brace: an entry is {"version":V,"key":K,"payload":P}. Get
// checks V and K so a schema bump or a renamed/copied file degrades to a
// miss instead of deserializing a stale payload into current-code structs.
func (s *Store) header(key string, room int) []byte {
	k, _ := json.Marshal(key) // a string always encodes
	return fmt.Appendf(make([]byte, 0, 40+len(k)+room), `{"version":%d,"key":%s,"payload":`, s.version, k)
}

// Path returns the file an entry for key lives at.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get loads the entry for key into out, reporting whether a valid entry was
// found. Every failure mode — absent file, truncated or corrupt JSON,
// version or key mismatch, payload that does not fit out — returns false.
// The version and key are checked before the payload is decoded, once.
// On false, out may have been partially populated; discard it.
func (s *Store) Get(key string, out any) bool {
	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		return false
	}
	h := s.header(key, 0)
	if !bytes.HasPrefix(b, h) || b[len(b)-1] != '}' {
		return false
	}
	return json.Unmarshal(b[len(h):len(b)-1], out) == nil
}

// Put stores v under key, replacing any existing entry (including corrupt
// ones). The payload is encoded once and framed as it is: json.Marshal's
// output is already compact and escaped. The write is atomic: a temp file
// in the same directory is renamed over the final path.
func (s *Store) Put(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runcache: encoding %s: %w", key, err)
	}
	b := append(append(s.header(key, len(payload)+1), payload...), '}')
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("runcache: writing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runcache: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}
