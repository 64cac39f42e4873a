package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestResultKeyGoldensFingerprint is the stale-cache guard: the golden reports
// pin what the pipeline computes, so when they move, entries written
// under the current resultKeySchema may no longer be what a run would
// compute. The test fails until the fingerprint is recorded again.
func TestResultKeyGoldensFingerprint(t *testing.T) {
	if got := goldensFingerprint(t); got != resultKeyGoldens {
		t.Fatalf("testdata/golden/* fingerprint %s, recorded %s: the goldens moved. "+
			"If results changed, bump resultKeySchema so the server's disk store cannot serve "+
			"stale entries; then record the new fingerprint in resultKeyGoldens.", got, resultKeyGoldens)
	}
}

// goldensFingerprint hashes testdata/golden/* in name order: each file's
// name and length, then its bytes.
func goldensFingerprint(t *testing.T) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden files found")
	}
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
