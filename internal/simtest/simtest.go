// Package simtest holds test helpers shared across the simulator's
// packages: table-cell parsing and a deep-equality check.
//
// The package imports no simulator package, so in-package tests anywhere
// in the module (including emu, which workloads transitively imports via
// btrace) can use it without import cycles.
package simtest

import (
	"fmt"
	"reflect"
	"testing"
)

// ParseF parses a rendered table cell as a float64 or fails the test.
func ParseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// RequireDeepEqual fails the test when got differs from want, printing both.
func RequireDeepEqual(t *testing.T, label string, want, got any) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: mismatch\nwant %+v\ngot  %+v", label, want, got)
	}
}
