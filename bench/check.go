package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// goldenJSON holds the checked-in digests of every output whose bytes are
// fixed by the paper: figure JSON at the benchmark's scales and trials,
// and the measurement of each seed-independent kernel and Xeon cell (plus
// the seeded cells at seed 1). `go run . golden` regenerates it.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile is the on-disk schema of testdata/golden.json.
type goldenFile struct {
	Note    string            `json:"note"`
	Digests map[string]string `json:"digests"`
}

func loadGolden() (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	if g.Digests == nil {
		g.Digests = map[string]string{}
	}
	return g.Digests, nil
}

// checker verifies every output a run produces and counts operations. An
// output is checked against its golden digest when one is checked in (and
// must have one when required), and against the first digest this run saw
// for the same key, so every repeat of a cell must reproduce it bit for bit.
type checker struct {
	golden map[string]string

	mu        sync.Mutex
	seen      map[string]string
	attempted int
	failed    int
	errs      []string
}

// newChecker returns a checker against golden digests; a nil map collects
// digests without checking them (golden regeneration).
func newChecker(golden map[string]string) *checker {
	return &checker{golden: golden, seen: map[string]string{}}
}

// output is one verified product of an operation.
type output struct {
	key    string
	digest string
	// required says a golden digest must exist for key.
	required bool
}

// record counts one operation and verifies its outputs; err marks the
// operation failed outright. It reports whether the operation passed.
func (c *checker) record(outs []output, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failLocked(err.Error())
		return false
	}
	for _, o := range outs {
		want, ok := c.golden[o.key]
		switch {
		case c.golden == nil:
		case ok && want != o.digest:
			c.failLocked(fmt.Sprintf("%s: digest %.12s, golden %.12s", o.key, o.digest, want))
			return false
		case !ok && o.required:
			c.failLocked(o.key + ": no golden digest")
			return false
		}
		if first, ok := c.seen[o.key]; ok && first != o.digest {
			c.failLocked(fmt.Sprintf("%s: digest %.12s, earlier in this run %.12s", o.key, o.digest, first))
			return false
		} else if !ok {
			c.seen[o.key] = o.digest
		}
	}
	return true
}

// fail counts one failed operation.
func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failLocked(msg)
}

func (c *checker) failLocked(msg string) {
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, msg)
	}
	fmt.Fprintln(os.Stderr, "emuperf: FAIL:", msg)
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
