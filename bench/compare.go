package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// collectedRun is one child run's result, keyed by what produced it.
type collectedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Runs []collectedRun `json:"runs"`
}

// collect runs every workload runs times, each run in its own child
// process, prints each metric's median and quartiles, and writes the set
// to out when given.
func collect(seed int64, runs int, seconds float64, trace int, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	for _, w := range benchWorkloads {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			res, err := lastResult(b)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			fmt.Fprintf(stdout, "%s seed %d: correct=%v attempted=%d failed=%d\n", w.name, s, res.Correct, res.Attempted, res.Failed)
			set.Runs = append(set.Runs, collectedRun{Workload: w.name, Seed: s, Trace: trace, Result: res})
		}
	}
	summarize(set, stdout)
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// lastResult parses the result on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}

// series groups a set's values by workload, metric and seed.
func series(set resultSet) map[string]map[string]map[int64]float64 {
	out := make(map[string]map[string]map[int64]float64)
	for _, r := range set.Runs {
		m := out[r.Workload]
		if m == nil {
			m = make(map[string]map[int64]float64)
			out[r.Workload] = m
		}
		for name, v := range r.Result.Metrics {
			if m[name] == nil {
				m[name] = make(map[int64]float64)
			}
			m[name][r.Seed] = v.Value
		}
	}
	return out
}

// seeds returns the seeds of vs in ascending order.
func seeds(vs map[int64]float64) []int64 {
	out := make([]int64, 0, len(vs))
	for s := range vs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// values returns vs ordered by seed.
func values(vs map[int64]float64) []float64 {
	var out []float64
	for _, s := range seeds(vs) {
		out = append(out, vs[s])
	}
	return out
}

// pairs returns the (old, new) values of every seed both sides ran.
func pairs(o, n map[int64]float64) [][2]float64 {
	var out [][2]float64
	for _, s := range seeds(o) {
		if v, ok := n[s]; ok {
			out = append(out, [2]float64{o[s], v})
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// summarize prints each workload's metrics as median, quartiles and the
// quartile spread as a share of the median.
func summarize(set resultSet, w io.Writer) {
	s := series(set)
	for _, wl := range benchWorkloads {
		m, ok := s[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s (%d runs)\n", wl.name, len(m[sortedKeys(m)[0]]))
		for _, name := range sortedKeys(m) {
			q1, q2, q3 := quartiles(values(m[name]))
			fmt.Fprintf(w, "  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f\n", name, q2, q1, q3, spread(q1, q2, q3))
		}
	}
}

func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

// exactMetrics are per-layer metrics the simulation determines: for a
// given seed they repeat exactly, so any difference is a change in what
// is simulated, not noise.
var exactMetrics = map[string]bool{
	"sim.ipc": true, "sim.mpki": true, "core.fetched_per_retired": true,
	"emu.fetch_per_kinstr": true, "btrace.fetch_per_kinstr": true, "bpred.calls_per_kinstr": true,
	"runahead.tick_per_kinstr": true, "runahead.hook_per_kinstr": true,
	"runahead.dce_uops_per_kinstr": true, "runahead.useful_pred_frac": true,
	"cache.l2_calls_per_kinstr": true, "cache.l1d_miss_frac": true, "cache.l2_miss_frac": true,
	"dram.calls_per_kinstr": true, "experiments.points_executed": true,
}

// compareFiles compares two result sets metric by metric and workload by
// workload. It prints each side's median and quartiles, the median and
// quartiles of the seed-paired ratios new/old, and a verdict.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]resultSet
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	olds, news := series(sets[0]), series(sets[1])
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	fmt.Fprintf(w, "%-12s %-34s %-30s %-30s %-26s %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "new/old median [q1, q3]", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			o, n := olds[wl.Name][m.Name], news[wl.Name][m.Name]
			ps := pairs(o, n)
			if len(ps) == 0 {
				continue
			}
			ratio := "-"
			if rs := ratios(ps); len(rs) > 0 {
				rq1, rm, rq3 := quartiles(rs)
				ratio = fmt.Sprintf("%.4f [%.4f, %.4f]", rm, rq1, rq3)
			}
			fmt.Fprintf(w, "%-12s %-34s %-30s %-30s %-26s %s\n", wl.Name, m.Name,
				quartileText(values(o)), quartileText(values(n)), ratio, verdict(m, ps))
		}
	}
	return nil
}

func quartileText(vs []float64) string {
	q1, m, q3 := quartiles(vs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", m, q1, q3)
}

// ratios returns new/old for every pair whose old value is not 0.
func ratios(ps [][2]float64) []float64 {
	var out []float64
	for _, p := range ps {
		if p[0] != 0 {
			out = append(out, p[1]/p[0])
		}
	}
	return out
}

// verdict judges new against old for one metric from its seed-paired runs.
// Dividing each new value by the old value of the same seed cancels what the
// seed does to the inputs, so the ratios vary only with the code and the
// host. With a bound (an end-to-end metric) the verdict is:
//
//   - improved when every new run is better than every old run;
//   - otherwise unresolved when the ratios' quartile spread exceeds the
//     bound;
//   - regressed when the median ratio is worse by more than the bound;
//   - improved when the median ratio is better by more than the old runs'
//     own quartile spread, and at least nine in ten pairs are better;
//   - same otherwise.
//
// Per-layer metrics have no bound (it reads 0). The exact ones report any
// difference as changed; the others report the median ratio's change.
func verdict(m specMetric, ps [][2]float64) string {
	if m.Bound == 0 && exactMetrics[m.Name] {
		for _, p := range ps {
			if p[0] != p[1] {
				return "changed"
			}
		}
		return "same"
	}
	rs := ratios(ps)
	if len(rs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(rs)
	if m.Bound == 0 {
		return fmt.Sprintf("%+.1f%%", 100*(med-1))
	}
	worse := med - 1 // share by which new is worse
	better := func(r float64) bool { return r < 1 }
	if m.Better == "higher" {
		worse = 1 - med
		better = func(r float64) bool { return r > 1 }
	}
	wins := 0
	for _, r := range rs {
		if better(r) {
			wins++
		}
	}
	allBetter := true
	var olds []float64
	for _, a := range ps {
		olds = append(olds, a[0])
		for _, b := range ps {
			allBetter = allBetter && better(b[1]/a[0])
		}
	}
	switch {
	case allBetter:
		return "improved"
	case spread(q1, med, q3) > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	case -worse > spread(quartiles(olds)) && float64(wins) >= 0.9*float64(len(rs)):
		return "improved"
	}
	return "same"
}
