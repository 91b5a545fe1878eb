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
// `brexp -quick` and `brexp -quick -share-warmup` print to stdout. Like
// the golden table's digest in internal/sim, a change that moves any
// quick-suite table must bump sim.Epoch and pin its digests here.
var quickDigests = map[int]map[string]string{
	1: {
		"-quick":               "17f5eb733e537af3eeb97515507b828caa91d18f224220f392889b804762621e",
		"-quick -share-warmup": "2111c486ed1ff0eb903a09b906036a4d06bd75bbfe0cc7fadac1729843e45343",
	},
}

// TestQuickTablesPinnedToEpoch renders the quick suite in both run
// semantics, as brexp prints them, and compares each against its digest.
func TestQuickTablesPinnedToEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: renders the quick suite twice")
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
		if err := printFigures(&out, c.suite(), c.figure, c.asJSON); err != nil {
			t.Fatalf("brexp %s: %v", args, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != digest {
			t.Errorf("brexp %s prints %d bytes with SHA-256 %s, epoch %d pins %s:\n%s",
				args, out.Len(), got, sim.Epoch, digest, out.String())
		}
	}
}
