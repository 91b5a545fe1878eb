package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// quickDigests pins, for each simulator epoch, the SHA-256 of what
// `brexp -quick` and `brexp -quick -share-warmup` print to stdout, and of
// two single points: Big on tc as `-json`, whose chain dumps, per-branch
// counts and activity no figure table prints, and Mini on mcf_17 as text.
// Like the golden table's digest in internal/sim, a change that moves any
// of them must bump sim.Epoch and pin its digests here.
var quickDigests = map[int]map[string]string{
	1: {
		"-quick":                            "17f5eb733e537af3eeb97515507b828caa91d18f224220f392889b804762621e",
		"-quick -share-warmup":              "2111c486ed1ff0eb903a09b906036a4d06bd75bbfe0cc7fadac1729843e45343",
		"-quick -workload tc -br big -json": "1f6df868374ad58cb6bc6e066f812f07f18168829c6d0123d4bf96371cb5ff2e",
		"-quick -workload mcf_17 -br mini":  "cb62ddd3b205a6eface97403a86c2a148716d2878b2afcedcda6bf7aceb276b0",
	},
}

// TestQuickTablesPinnedToEpoch renders each pinned argument list through
// the function brexp's main prints its mode with, and compares the output
// against its digest.
func TestQuickTablesPinnedToEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: renders the quick suite twice and runs Big on tc")
	}
	want, ok := quickDigests[sim.Epoch]
	if !ok {
		t.Fatalf("sim.Epoch %d pins no quick-suite digests", sim.Epoch)
	}
	for args, digest := range want {
		c, err := parseArgs(strings.Fields(args), io.Discard)
		if err != nil {
			t.Fatalf("brexp %s: %v", args, err)
		}
		var out bytes.Buffer
		if err := c.render(&out, c.suite()); err != nil {
			t.Fatalf("brexp %s: %v", args, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != digest {
			t.Errorf("brexp %s prints %d bytes with SHA-256 %s, epoch %d pins %s:\n%s",
				args, out.Len(), got, sim.Epoch, digest, out.String())
		}
	}
}
