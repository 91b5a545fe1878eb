package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// sweepWorkload is the Figure-13 sweep's only workload: every sweep point is
// a Mini variant over it, so with shared warmup the sweep warms up once.
const sweepWorkload = "mcf_17"

// sweepOptions configures one cold Figure-13 sweep: the quick budgets, one
// worker, warmup shared across points, results persisted to cacheDir.
func sweepOptions(o options, cacheDir string, notify func(string)) experiments.Options {
	eo := experiments.QuickOptions()
	eo.Scale.Seed = o.seed
	eo.Warmup = o.b.sweepWarmup
	eo.SweepInstrs = o.b.sweepInstrs
	eo.SweepWorkloads = []string{sweepWorkload}
	eo.ShareWarmup = true
	eo.Jobs = 1
	eo.CacheDir = cacheDir
	eo.Notify = notify
	return eo
}

// sweepRound is one cold Figure-13 sweep.
type sweepRound struct {
	table string
	// gaps holds, per point in completion order, the seconds since the
	// previous point completed (the first since the round started).
	gaps     []float64
	wall     time.Duration
	executed int
}

// runSweepRound runs one Figure-13 sweep against an empty cache directory,
// so every point is simulated and written to the cache.
func runSweepRound(o options) (sweepRound, error) {
	dir := filepath.Join(o.dir, "sweep")
	defer os.RemoveAll(dir)
	var stamps []time.Time
	start := time.Now()
	s := experiments.NewSuite(sweepOptions(o, dir, func(string) { stamps = append(stamps, time.Now()) }))
	t, _, err := s.Figure13()
	wall := time.Since(start)
	if err != nil {
		return sweepRound{}, err
	}
	gaps := make([]float64, len(stamps))
	prev := start
	for i, st := range stamps {
		gaps[i] = st.Sub(prev).Seconds()
		prev = st
	}
	return sweepRound{table: t.String(), gaps: gaps, wall: wall, executed: s.RunsExecuted()}, nil
}

// checkSweepRound checks a cold round simulated every point and rendered
// the same table bytes as the first round.
func checkSweepRound(r *run, rd sweepRound, first *string) bool {
	ok := r.check(len(rd.gaps) > 1 && rd.executed == len(rd.gaps),
		"cold sweep executed %d simulations for %d points", rd.executed, len(rd.gaps))
	if *first == "" {
		*first = rd.table
	}
	return r.check(rd.table == *first, "Figure-13 table differs from the first round's") && ok
}

// runSweep is the untraced sweep workload. Rounds of whole cold sweeps
// repeat until the measured time is spent. A round's set-up is its first
// point, which carries the warmup every later point forks from; one
// operation is each later point.
func runSweep(o options, r *run) error {
	var setup, gaps []float64
	var wall time.Duration
	var first string
	alloc0 := totalAlloc()
	start := time.Now()
	for n := 0; n < o.setupReps || time.Since(start) < o.seconds; n++ {
		rd, err := runSweepRound(o)
		if !r.op(err) {
			continue
		}
		if !checkSweepRound(r, rd, &first) {
			continue
		}
		setup = append(setup, rd.gaps[0])
		gaps = append(gaps, rd.gaps[1:]...)
		wall += rd.wall - time.Duration(rd.gaps[0]*float64(time.Second))
	}
	if len(gaps) == 0 {
		return errors.New("no sweep round completed")
	}
	r.endToEnd(len(gaps), wall, gaps, totalAlloc()-alloc0, setup)
	return nil
}

// traceSweep runs one plain sweep round, then one under the CPU and alloc
// profilers, and reports the experiments layer from the profiled round.
func traceSweep(o options, r *run) error {
	plain, err := runSweepRound(o)
	if err != nil {
		return err
	}
	var first string
	checkSweepRound(r, plain, &first)
	prof, err := startProfiles(o.dir)
	if err != nil {
		return err
	}
	rt0 := sampleRuntime()
	rd, err := runSweepRound(o)
	rt1 := sampleRuntime()
	if perr := prof.stop(r); perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	checkSweepRound(r, rd, &first)
	r.setRuntimeLayer(rt0, rt1, len(rd.gaps))
	r.set("bench.trace_overhead", "ratio", rd.wall.Seconds()/plain.wall.Seconds())
	r.set("experiments.points_executed", "count", float64(rd.executed))
	r.set("experiments.warmup_point_frac", "frac", rd.gaps[0]/rd.wall.Seconds())
	return nil
}

// serveWorkloads are the workloads of the cold Figure-10 job, the quick
// suite's three.
var serveWorkloads = []string{"mcf_17", "leela_17", "bfs"}

// serveSeries are the Figure-10 series, named as run requests.
var serveSeries = []struct{ predictor, br string }{
	{"tage64", ""}, {"tage80", ""}, {"tage64", "core-only"}, {"tage64", "mini"}, {"tage64", "big"},
}

// servePoint is one run request: a workload and a Figure-10 series.
type servePoint struct{ workload, predictor, br string }

// servePoints are the 15 points the cold Figure-10 job caches; each warm run
// request resolves to one of those cache entries.
var servePoints = func() []servePoint {
	var out []servePoint
	for _, w := range serveWorkloads {
		for _, s := range serveSeries {
			out = append(out, servePoint{w, s.predictor, s.br})
		}
	}
	return out
}()

// serveClients is the number of closed-loop clients.
const serveClients = 2

// service is a brserve instance on a loopback port whose server.Server can
// be swapped for a fresh one over the same cache directory.
type service struct {
	cfg     server.Config
	b       budget
	cur     *server.Server
	handler atomic.Value // http.Handler of cur
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// ServeHTTP forwards to the current server.
func (s *service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// startService starts a server over an empty cache directory and runs one
// cold Figure-10 job through it, which caches every serve point.
func startService(o options) (*service, error) {
	s := &service{
		cfg:    server.Config{CacheDir: filepath.Join(o.dir, "serve"), Quick: true, Jobs: 1, MaxJobs: 1},
		b:      o.b,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	if err := s.swap(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s}
	go func() { s.served <- s.hs.Serve(ln) }()

	body := fmt.Sprintf(`{"version":1,"kind":"figure","figure":"10","workloads":["%s"],"warmup":%d,"instrs":%d}`,
		strings.Join(serveWorkloads, `","`), o.b.serveWarmup, o.b.serveInstrs)
	st, err := s.submit(body)
	if err == nil {
		err = s.await(st.ID)
	}
	if err == nil {
		st, err = s.status(st.ID)
	}
	if err == nil && st.State != server.StateDone {
		err = fmt.Errorf("cold figure job %s: %s", st.State, st.Error)
	}
	if err == nil && st.RunsExecuted != len(servePoints) {
		err = fmt.Errorf("cold figure job executed %d simulations, want %d", st.RunsExecuted, len(servePoints))
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// swap replaces the current server with a fresh one over the same cache
// directory, so the next requests miss the in-memory job registry and are
// answered from the persistent cache.
func (s *service) swap() error {
	srv, err := server.New(s.cfg)
	if err != nil {
		return err
	}
	old := s.cur
	s.cur = srv
	s.handler.Store(srv.Handler())
	if old != nil {
		return old.Drain(context.Background())
	}
	return nil
}

// close stops the HTTP server, waits for it and for the last server's jobs,
// and removes the cache directory.
func (s *service) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	s.client.CloseIdleConnections()
	s.cur.Drain(context.Background())
	os.RemoveAll(s.cfg.CacheDir)
}

func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCancelled
}

func (s *service) submit(body string) (server.Status, error) {
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return server.Status{}, err
	}
	return decodeStatus(resp)
}

func (s *service) status(id string) (server.Status, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id)
	if err != nil {
		return server.Status{}, err
	}
	return decodeStatus(resp)
}

// await reads a job's events stream to its end, which the server reaches
// when the job is terminal.
func (s *service) await(id string) error {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func decodeStatus(resp *http.Response) (server.Status, error) {
	defer resp.Body.Close()
	var st server.Status
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// warmRequest is one submit → wait → result exchange.
type warmRequest struct {
	point int
	// submit is the POST; wait runs from its response to the final status
	// (the events stream, then one status read); result is the download.
	submit, wait, result time.Duration
	final                server.Status
	code                 int
	body                 []byte
	err                  error
}

func (w warmRequest) latency() time.Duration { return w.submit + w.wait + w.result }

// request runs one warm run request for a serve point.
func (s *service) request(point int) warmRequest {
	p := servePoints[point]
	w := warmRequest{point: point}
	body := fmt.Sprintf(`{"version":1,"kind":"run","workload":%q,"predictor":%q,"br":%q,"warmup":%d,"instrs":%d}`,
		p.workload, p.predictor, p.br, s.b.serveWarmup, s.b.serveInstrs)
	t0 := time.Now()
	st, err := s.submit(body)
	t1 := time.Now()
	if err == nil && !terminal(st.State) {
		// The events stream ends once the job is terminal, so the client
		// waits on the server, not on a poll interval.
		err = s.await(st.ID)
	}
	if err == nil {
		st, err = s.status(st.ID)
	}
	t2 := time.Now()
	w.submit, w.wait, w.final = t1.Sub(t0), t2.Sub(t1), st
	if err != nil {
		w.err = err
		return w
	}
	resp, err := s.client.Get(s.base + "/v1/jobs/" + st.ID + "/result")
	if err == nil {
		w.code = resp.StatusCode
		w.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	w.result = time.Since(t2)
	w.err = err
	return w
}

// round swaps in a fresh server and has the clients issue every serve point
// once, in an order drawn from rng, each client sending its next request
// only after its previous one completed.
func (s *service) round(rng *rand.Rand) ([]warmRequest, error) {
	if err := s.swap(); err != nil {
		return nil, err
	}
	order := rng.Perm(len(servePoints))
	next := make(chan int, len(order)) // holds the whole round
	for _, p := range order {
		next <- p
	}
	close(next)
	done := make([][]warmRequest, serveClients)
	var wg sync.WaitGroup
	for c := range done {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := range next {
				done[c] = append(done[c], s.request(p))
			}
		}(c)
	}
	wg.Wait()
	var out []warmRequest
	for _, d := range done {
		out = append(out, d...)
	}
	return out, nil
}

// checkWarm checks a warm response: HTTP 200, no simulation executed, and
// the same body bytes as the first response for that point.
func checkWarm(r *run, w warmRequest, first map[int][]byte) {
	if !r.op(w.err) {
		return
	}
	r.check(w.code == http.StatusOK && w.final.State == server.StateDone,
		"point %d: HTTP %d, job %s", w.point, w.code, w.final.State)
	r.check(w.final.RunsExecuted == 0, "point %d: warm request executed %d simulations", w.point, w.final.RunsExecuted)
	if ref, seen := first[w.point]; !seen {
		first[w.point] = w.body
	} else {
		r.check(string(ref) == string(w.body), "point %d: body differs from the first response", w.point)
	}
}

// serveLoop runs rounds until want rounds are done or, for want 0, until
// the measured time is spent. It returns the requests and the loop's wall
// time.
func serveLoop(s *service, r *run, rng *rand.Rand, first map[int][]byte, want int, d time.Duration) ([]warmRequest, time.Duration, error) {
	var all []warmRequest
	start := time.Now()
	for n := 0; n == 0 || (want > 0 && n < want) || (want == 0 && time.Since(start) < d); n++ {
		reqs, err := s.round(rng)
		if err != nil {
			return nil, 0, err
		}
		for i := range reqs {
			checkWarm(r, reqs[i], first)
			reqs[i].body = nil // only the first body per point is kept
		}
		all = append(all, reqs...)
	}
	return all, time.Since(start), nil
}

func latencies(reqs []warmRequest) []float64 {
	out := make([]float64, len(reqs))
	for i, w := range reqs {
		out[i] = w.latency().Seconds()
	}
	return out
}

// runServe is the untraced serve workload. One operation is one warm run
// request; two closed-loop clients issue them until the measured time is
// spent.
func runServe(o options, r *run) error {
	var s *service
	setup, err := timeSetup(o.setupReps, func() error {
		if s != nil {
			s.close()
		}
		var err error
		s, err = startService(o)
		return err
	})
	if err != nil {
		return err
	}
	defer s.close()
	rng := rand.New(rand.NewSource(o.seed))
	alloc0 := totalAlloc()
	reqs, wall, err := serveLoop(s, r, rng, make(map[int][]byte), 0, o.seconds)
	if err != nil {
		return err
	}
	r.endToEnd(len(reqs), wall, latencies(reqs), totalAlloc()-alloc0, setup)
	return nil
}

// traceServe runs a plain pass of rounds, then the same number under the
// CPU and alloc profilers, and reports the server layer's phases from the
// profiled pass.
func traceServe(o options, r *run) error {
	s, err := startService(o)
	if err != nil {
		return err
	}
	defer s.close()
	rng := rand.New(rand.NewSource(o.seed))
	first := make(map[int][]byte)
	_, plainWall, err := serveLoop(s, r, rng, first, o.b.serveTraceRounds, 0)
	if err != nil {
		return err
	}
	prof, err := startProfiles(o.dir)
	if err != nil {
		return err
	}
	rt0 := sampleRuntime()
	reqs, wall, err := serveLoop(s, r, rng, first, o.b.serveTraceRounds, 0)
	rt1 := sampleRuntime()
	if perr := prof.stop(r); perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	var submit, wait, result, total time.Duration
	for _, w := range reqs {
		submit += w.submit
		wait += w.wait
		result += w.result
		total += w.latency()
	}
	lat := latencies(reqs)
	r.setRuntimeLayer(rt0, rt1, len(reqs))
	r.set("bench.trace_overhead", "ratio", wall.Seconds()/plainWall.Seconds())
	r.set("server.submit_frac", "frac", submit.Seconds()/total.Seconds())
	r.set("server.wait_frac", "frac", wait.Seconds()/total.Seconds())
	r.set("server.result_frac", "frac", result.Seconds()/total.Seconds())
	r.set("server.p99_over_p50", "ratio", percentile(lat, 99)/median(lat))
	return nil
}
