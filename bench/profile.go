package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// pprofPackages are the buckets flat profile samples are attributed to:
// the repository's packages on the simulation and harness paths, the Go
// runtime (which holds the allocator and GC), the benchmark itself (its
// timing wrappers), and everything else.
var pprofPackages = []string{
	"core", "bpred", "runahead", "mergepoint", "cache", "dram", "emu", "btrace",
	"isa", "program", "sim", "stats", "brstate", "experiments", "server",
	"workloads", "runtime", "bench", "other",
}

// profiles is a CPU profile plus an alloc-profile baseline, both covering
// one traced pass.
type profiles struct {
	dir    string
	cpu    *os.File
	alloc0 string
}

// startProfiles snapshots the alloc profile and starts the CPU profile.
func startProfiles(dir string) (*profiles, error) {
	p := &profiles{dir: dir, alloc0: filepath.Join(dir, "alloc0.pb.gz")}
	if err := writeAllocProfile(p.alloc0); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pb.gz"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

// stop ends the CPU profile, takes the closing alloc snapshot, and records
// each bucket's share of CPU samples and of bytes allocated in between.
func (p *profiles) stop(r *run) error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	alloc1 := filepath.Join(p.dir, "alloc1.pb.gz")
	if err := writeAllocProfile(alloc1); err != nil {
		return err
	}
	cpu, err := bucketProfile(p.cpu.Name(), "")
	if err != nil {
		return err
	}
	alloc, err := bucketProfile(alloc1, p.alloc0)
	if err != nil {
		return err
	}
	for _, pkg := range pprofPackages {
		r.set("pprof."+pkg+".cpu_frac", "frac", cpu[pkg])
		r.set("pprof."+pkg+".alloc_frac", "frac", alloc[pkg])
	}
	return nil
}

// writeAllocProfile writes the cumulative alloc profile. The profile is
// current as of the last completed GC, so it forces one first.
func writeAllocProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bucketProfile runs the toolchain's `go tool pprof -raw` on a profile
// (minus base, when given) and returns each bucket's share of the second
// sample value — CPU nanoseconds or allocated bytes — attributed to the
// package of each sample's leaf frame.
func bucketProfile(path, base string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-raw"}
	if base != "" {
		args = append(args, "-diff_base", base)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", append(args, path)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseRawProfile(out)
}

// parseRawProfile reads pprof's -raw text: a Samples section of
// "v0 v1 ...: loc loc ..." lines (leaf location first) and a Locations
// section of "id: addr M=n function file:line" lines, where the callers a
// function was inlined into follow on continuation lines.
func parseRawProfile(raw []byte) (map[string]float64, error) {
	type sample struct {
		value float64
		locs  []string
	}
	var samples []sample
	funcs := make(map[string][]string) // location → functions, innermost first
	section, loc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "Samples:", "Locations", "Mappings":
			section = line
			continue
		}
		switch section {
		case "Samples:":
			head, rest, ok := strings.Cut(line, ":")
			vals, locs := strings.Fields(head), strings.Fields(rest)
			if !ok || len(vals) < 2 || len(locs) == 0 {
				continue
			}
			v, err := strconv.ParseFloat(vals[1], 64)
			if err != nil {
				continue // a label line such as "bytes:[288]"
			}
			samples = append(samples, sample{v, locs})
		case "Locations":
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			if id, ok := strings.CutSuffix(f[0], ":"); ok {
				if _, err := strconv.Atoi(id); err == nil {
					loc = id
					if len(f) >= 4 {
						funcs[loc] = append(funcs[loc], f[3])
					}
					continue
				}
			}
			funcs[loc] = append(funcs[loc], f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	total := 0.0
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			stack = append(stack, funcs[l]...)
		}
		out[bucketOf(stack)] += s.value
		total += s.value
	}
	if total <= 0 {
		return map[string]float64{}, nil // a pass too short to sample
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// bucketOf attributes a sample's stack (leaf first) to a bucket. A
// repository or runtime leaf owns the sample. A standard-library leaf
// (time, sort, encoding/json, ...) is charged to the nearest repository
// frame that called it, so the benchmark's clock reads land in bench and
// the server's JSON encoding in server.
func bucketOf(stack []string) string {
	for i, fn := range stack {
		switch pkg := packageOf(fn); {
		case pkg != "":
			return pkg
		case i == 0 && isRuntime(fn):
			return "runtime"
		}
	}
	return "other"
}

// packageOf returns the bucket of a repository function (a package under
// repro/internal, or the benchmark's own main package), or "" for any
// other function.
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, p := range pprofPackages {
		if p == pkg {
			return pkg
		}
	}
	return "other"
}

// isRuntime reports whether fn belongs to the Go runtime. Assembly helpers
// such as gcWriteBarrier carry no package qualifier.
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, ".")
}
