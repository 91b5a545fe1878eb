// Command brtrace works with the simulator's instruction streams.
//
// With no subcommand it prints a per-event pipeline trace of a workload
// running on the simulator — a debugging lens on fetch, dispatch, issue,
// complete, retire, squash and flush events, with wrong-path micro-ops
// marked:
//
//	brtrace -workload leela_17 -start 5000 -cycles 200
//	brtrace -workload mcf_17 -config mini -stages flush,retire
//
// The record subcommand captures a workload's correct-path execution as a
// versioned .btr trace file; the simulator replays such traces through the
// full core/runahead/cache/DRAM stack bit-identically to execution-driven
// runs (pass the file as workload "trace:<path>" to brexp or register it
// with brserve -trace-dir). info prints a trace file's identity:
//
//	brtrace record -workload leela_17 -o leela.btr
//	brtrace record -workload mcf_17 -scale small -warmup 30000 -instrs 100000 -o mcf.btr
//	brtrace info leela.btr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/btrace"
	"repro/internal/program"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			if err := runRecord(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "brtrace: record:", err)
				os.Exit(1)
			}
			return
		case "info":
			if err := runInfo(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "brtrace: info:", err)
				os.Exit(1)
			}
			return
		}
	}
	runPipelineTrace()
}

// scaleByName maps the -scale flag onto workload footprints.
func scaleByName(name string) (workloads.Scale, error) {
	switch name {
	case "default":
		return workloads.DefaultScale(), nil
	case "small":
		return workloads.SmallScale(), nil
	default:
		return workloads.Scale{}, fmt.Errorf("unknown scale %q (want default or small)", name)
	}
}

// runRecord captures one workload's correct path into a .btr file. The
// budgets mirror the simulation the trace is meant to drive: the recording
// covers warmup+instrs plus the fetch-ahead slack, so a replay with the same
// budgets never exhausts the stream.
func runRecord(args []string) error {
	fs := flag.NewFlagSet("brtrace record", flag.ExitOnError)
	var (
		workload = fs.String("workload", "leela_17", "workload kernel to record")
		scale    = fs.String("scale", "default", "workload footprint: default | small (match the replaying run)")
		warmup   = fs.Uint64("warmup", 100_000, "warmup budget the trace must cover")
		instrs   = fs.Uint64("instrs", 400_000, "measured budget the trace must cover")
		steps    = fs.Uint64("steps", 0, "record exactly this many micro-ops instead of deriving from -warmup/-instrs")
		out      = fs.String("o", "", "output path (default <workload>.btr)")
	)
	fs.Parse(args)
	sc, err := scaleByName(*scale)
	if err != nil {
		return err
	}
	w, err := workloads.ByName(*workload, sc)
	if err != nil {
		return err
	}
	n := *steps
	if n == 0 {
		n = btrace.StepsFor(*warmup, *instrs)
	}
	tr, err := btrace.Record(w.Prog, w.Name, n)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *workload + ".btr"
	}
	if err := btrace.WriteFile(path, tr); err != nil {
		return err
	}
	enc := tr.Encode()
	fmt.Printf("%s: %d records, %d uops, fingerprint %s (%d bytes)\n",
		path, len(tr.Recs), len(tr.Prog.Uops), btrace.Fingerprint(enc), len(enc))
	return nil
}

// runInfo prints a trace file's identity and shape.
func runInfo(args []string) error {
	fs := flag.NewFlagSet("brtrace info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: brtrace info <file.btr>")
	}
	path := fs.Arg(0)
	tr, err := btrace.ReadFile(path)
	if err != nil {
		return err
	}
	var dataBytes int
	for _, seg := range tr.Prog.Data {
		dataBytes += len(seg.Bytes)
	}
	fmt.Printf("name:        %s\n", tr.Name)
	fmt.Printf("fingerprint: %s\n", tr.Fingerprint)
	fmt.Printf("uops:        %d (entry %d)\n", len(tr.Prog.Uops), tr.Prog.Entry)
	fmt.Printf("segments:    %d (%d bytes)\n", len(tr.Prog.Data), dataBytes)
	fmt.Printf("records:     %d\n", len(tr.Recs))
	fmt.Printf("workload:    trace:%s@%s\n", path, tr.Fingerprint)
	return nil
}

// lensOptions selects what the pipeline lens prints: a workload under one
// configuration, a window of cycles, and an optional stage filter.
type lensOptions struct {
	workload string
	config   string // baseline or a runahead.ConfigNames name
	start    uint64 // first cycle to trace
	cycles   uint64 // number of cycles to trace
	stages   string // comma-separated stage filter (empty = all)
}

// runPipelineTrace is the original brtrace behaviour: a per-event pipeline
// event dump over a trace window.
func runPipelineTrace() {
	var o lensOptions
	flag.StringVar(&o.workload, "workload", "leela_17", "workload kernel name")
	flag.StringVar(&o.config, "config", "baseline", "baseline | "+strings.Join(runahead.ConfigNames(), " | "))
	flag.Uint64Var(&o.start, "start", 10_000, "first cycle to trace")
	flag.Uint64Var(&o.cycles, "cycles", 100, "number of cycles to trace")
	flag.StringVar(&o.stages, "stages", "", "comma-separated stage filter (empty = all)")
	flag.Parse()

	out := bufio.NewWriter(os.Stdout)
	err := pipelineTrace(out, o)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brtrace:", err)
		os.Exit(1)
	}
}

// pipelineTrace runs o.workload on the machine sim.Run builds and writes one
// line per micro-op pipeline event inside the cycle window to out.
func pipelineTrace(out io.Writer, o lensOptions) error {
	w, err := workloads.ByName(o.workload, workloads.SmallScale())
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	if o.config != "baseline" {
		br, err := runahead.ConfigByName(o.config)
		if err != nil {
			return err
		}
		cfg.BR = &br
	}
	l := &lens{out: out, prog: w.Prog, start: o.start, end: o.start + o.cycles, want: map[string]bool{}}
	for _, s := range strings.Split(o.stages, ",") {
		if s = strings.TrimSpace(s); s != "" {
			l.want[s] = true
		}
	}
	// The core retires at most RetireWidth micro-ops a cycle, so the run
	// cannot end before the window closes.
	cfg.Warmup = 0
	cfg.MaxInstrs = l.end * uint64(cfg.Core.RetireWidth)
	cfg.Trace = trace.New(l)
	if _, err := sim.Run(w, cfg); err != nil {
		return err
	}
	return l.err
}

// lens is a trace sink that renders the KindUop events of a cycle window,
// one line each; conditional branches also show their prediction.
type lens struct {
	out        io.Writer
	prog       *program.Program
	start, end uint64
	want       map[string]bool // stage filter; empty keeps every stage
	err        error
}

func (l *lens) Emit(ev trace.Event) {
	if ev.Kind != trace.KindUop || ev.Cycle < l.start || ev.Cycle >= l.end || l.err != nil {
		return
	}
	stage := trace.StageName(ev.Arg)
	if len(l.want) > 0 && !l.want[stage] {
		return
	}
	mark := " "
	if ev.Flag {
		mark = "W"
	}
	u := l.prog.At(ev.PC)
	extra := ""
	if u.Op.IsCondBranch() {
		src := "tage"
		if ev.Val&trace.UopFromPQ != 0 {
			src = "DCE"
		}
		extra = fmt.Sprintf("  pred=%-5v actual=%-5v src=%s",
			ev.Val&trace.UopPredTaken != 0, ev.Val&trace.UopTaken != 0, src)
		if ev.Arg == trace.StageFlush {
			extra += "  MISPREDICT"
		}
	}
	_, l.err = fmt.Fprintf(l.out, "%8d  %-8s %s seq=%-8d %s%s\n", ev.Cycle, stage, mark, ev.Seq,
		strings.TrimSpace(u.String()), extra)
}
