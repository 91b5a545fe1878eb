package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestSelectFigures: -figure takes a comma list in any case, selects the
// tables first and then the figures in the paper's order, and rejects the
// whole selection when any name in it is unknown.
func TestSelectFigures(t *testing.T) {
	all := append([]string{"tables"}, experiments.FigureNames()...)
	for _, c := range []struct {
		spec string
		want []string
	}{
		{"10", []string{"10"}},
		{"13, 2,10", []string{"2", "10", "13"}},
		{"11TOP,Tables", []string{"tables", "11top"}},
		{"all", all},
		{"12,ALL", all},
	} {
		got, err := selectFigures(c.spec)
		if err != nil {
			t.Errorf("-figure %q: %v", c.spec, err)
			continue
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("-figure %q selected %v, want %v", c.spec, got, c.want)
		}
	}
	for _, c := range []struct{ spec, name string }{
		{"bogus", `"bogus"`},
		{"tables,bogus", `"bogus"`},
		{"1,16,2", `"16"`},
		{"", `""`},
	} {
		if got, err := selectFigures(c.spec); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("-figure %q = %v, %v; want an error naming %s", c.spec, got, err, c.name)
		}
	}
}
