package workloads

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/btrace"
)

// Trace-backed workloads. A workload name of the form
//
//	trace:<spec>[@<fingerprint>]
//
// resolves <spec> against the registry below (falling back to treating it as
// a file path) and loads the recorded trace as a Workload whose canonical
// Name carries the trace's content fingerprint — so run-cache keys and
// warmup-snapshot keys, both of which embed the workload name, address the
// trace bytes rather than a mutable path. A given fingerprint is verified
// against the loaded file, making canonical names safe to pass back in.
const (
	// TracePrefix marks workload names resolved from a recorded trace.
	TracePrefix = "trace:"
	// TraceSuite is the Suite of trace-backed workloads.
	TraceSuite = "trace"
)

// traceFiles maps registered trace names to their file paths. Registration
// happens at process startup (flag handling, server boot) strictly before
// any concurrent ByName call, so a plain map suffices — this package is
// deliberately free of sync primitives.
var traceFiles = map[string]string{}

// RegisterTrace names a trace file so workloads can refer to it as
// "trace:<name>" without exposing the path. Returns an error for names that
// collide with the canonical-name syntax; re-registering a name replaces its
// path.
func RegisterTrace(name, path string) error {
	if name == "" {
		return fmt.Errorf("workloads: empty trace name")
	}
	if strings.ContainsAny(name, "@ \t\n") {
		return fmt.Errorf("workloads: trace name %q: '@' and whitespace are reserved", name)
	}
	traceFiles[name] = path
	return nil
}

// TraceNames returns the registered trace names, sorted.
func TraceNames() []string {
	out := make([]string, 0, len(traceFiles))
	for name := range traceFiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TracePath reports the file a registered trace name resolves to.
func TracePath(name string) (string, bool) {
	p, ok := traceFiles[name]
	return p, ok
}

// isFingerprint reports whether s looks like a btrace fingerprint (16
// lowercase hex digits), the only suffix traceWorkload splits off — so file
// paths containing '@' still resolve.
func isFingerprint(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// splitTraceSpec splits a trace spec (TracePrefix already stripped) into
// its registered name or path and its optional fingerprint.
func splitTraceSpec(spec string) (base, fingerprint string) {
	if i := strings.LastIndexByte(spec, '@'); i >= 0 && isFingerprint(spec[i+1:]) {
		return spec[:i], spec[i+1:]
	}
	return spec, ""
}

// IsRegisteredTrace reports whether name is "trace:<name>[@<fingerprint>]"
// for a registered trace name, so that resolving it reads no file the
// caller chose.
func IsRegisteredTrace(name string) bool {
	spec, ok := strings.CutPrefix(name, TracePrefix)
	if !ok {
		return false
	}
	base, _ := splitTraceSpec(spec)
	_, registered := traceFiles[base]
	return registered
}

// traceWorkload loads the trace workload named by spec (TracePrefix already
// stripped).
func traceWorkload(spec string) (*Workload, error) {
	base, wantFP := splitTraceSpec(spec)
	path, registered := traceFiles[base]
	if !registered {
		path = base
	}
	t, err := btrace.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workloads: trace workload %q: %w", TracePrefix+spec, err)
	}
	if wantFP != "" && wantFP != t.Fingerprint {
		return nil, fmt.Errorf("workloads: trace workload %q: file now fingerprints %s (content changed since the name was minted)",
			TracePrefix+spec, t.Fingerprint)
	}
	return &Workload{
		Name:  TracePrefix + base + "@" + t.Fingerprint,
		Suite: TraceSuite,
		Prog:  t.Prog,
		Trace: t,
		About: fmt.Sprintf("recorded trace %q (%d records) replayed through the full machine", t.Name, len(t.Recs)),
	}, nil
}
