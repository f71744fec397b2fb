package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/service"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// Session workloads drive the real flowrecond binary over loopback HTTP
// from this one process, with at most loadConns connections: an open
// loop of Poisson arrivals at a fixed offered rate, timed from when each
// session was due, then a closed loop of loadConns back-to-back clients.
const (
	sessionTrials  = 32
	sessionProbes  = 2
	loadConns      = 2
	daemonWorkers  = 2
	openShare      = 0.6  // of the run time, for the open loop
	minOpen        = 1000 // open-loop sessions: enough for a p99 with 10 beyond
	refSample      = 8    // streams per phase checked against an in-process manager
	tracedSessions = 1000 // sequential sessions in a traced run
	attributeEvery = 2    // of those, every second gets side passes
)

// sessionWorkload is one traffic mix against the daemon.
type sessionWorkload struct {
	params  experiment.Params
	targets int // working set: distinct target configurations
	// refTargets: the determinism check samples streams attacking the
	// first refTargets targets, which bounds the in-process reference's
	// model builds.
	refTargets int
	storeCap   int           // daemon -model-store; 0 keeps the default
	warm       int           // targets built during set-up
	warmSeq    bool          // warm one session at a time, so the store's LRU order is the same every set-up
	setups     int           // set-ups per run, the median reported
	rate       float64       // open-loop offered sessions per second
	limit      time.Duration // latency limit for within_slo_frac
}

// smallParams is the repository's small scale (8 flows, 6 rules, cache
// 3), as `experiments -scale small` sets it.
func smallParams() experiment.Params {
	p := experiment.DefaultParams()
	p.NumFlows, p.NumRules, p.MaskBits, p.CacheSize = 8, 6, 3, 3
	p.WindowSeconds = 5
	return p
}

func hotWorkload(o runOpts) sessionWorkload {
	return sessionWorkload{params: experiment.DefaultParams(), targets: 4, refTargets: 1, warm: 4, setups: 3,
		rate: o.hotRate, limit: o.hotLimit}
}

// churnWorkload caps the store at 8 models under a working set of 96
// targets, so most sessions miss, build and evict. The core model cache
// (32 compact models, two per target) is also well below the working set,
// so a store miss really builds. Its set-up takes about 0.15 s, so five
// of them cost less than one of sessions-hot's and steady the median. A
// small-scale build takes milliseconds, so the determinism check samples
// streams of any target.
func churnWorkload(o runOpts) sessionWorkload {
	return sessionWorkload{params: smallParams(), targets: 96, refTargets: 96, storeCap: 8, warm: 8, warmSeq: true, setups: 5,
		rate: o.churnRate, limit: o.churnLimit}
}

// specSource deals session specs in a fixed order from a seed: the target
// uniformly from the working set, a fresh trial seed per session.
type specSource struct {
	mu      sync.Mutex
	rng     *stats.RNG
	w       sessionWorkload
	targets []int64
}

func newSpecSource(w sessionWorkload, seed int64, stream int64) *specSource {
	trng := stats.NewRNG(seed)
	targets := make([]int64, w.targets)
	for i := range targets {
		targets[i] = trng.Int63()
	}
	return &specSource{rng: stats.NewRNG(seed*7919 + stream), w: w, targets: targets}
}

func (s *specSource) spec(target int, trialSeed int64, trials int) service.SessionSpec {
	return service.SessionSpec{Name: "perfbench", Target: experiment.RecordingSpec{
		Params:      s.w.params,
		ConfigSeed:  s.targets[target],
		TrialSeed:   trialSeed,
		Trials:      trials,
		Probes:      sessionProbes,
		Measurement: experiment.DefaultMeasurement(),
	}}
}

// next deals the next session spec and the index of the target it
// attacks.
func (s *specSource) next() (service.SessionSpec, int) {
	s.mu.Lock()
	target, seed := s.rng.Intn(len(s.targets)), s.rng.Int63()
	s.mu.Unlock()
	return s.spec(target, seed, sessionTrials), target
}

// sampler picks the streams the determinism check compares: the first
// refSample of a phase that attack one of the first refTargets targets.
type sampler struct {
	mu         sync.Mutex
	n          int
	refTargets int
}

func (p *sampler) take(target int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if target >= p.refTargets || p.n >= refSample {
		return false
	}
	p.n++
	return true
}

// warmSpecs are the set-up sessions: one single-trial session per warm
// target, in target order.
func (s *specSource) warmSpecs() []service.SessionSpec {
	out := make([]service.SessionSpec, s.w.warm)
	for i := range out {
		out[i] = s.spec(i, 1, 1)
	}
	return out
}

func encodeSpec(spec service.SessionSpec) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a SessionSpec always marshals
	}
	return b
}

// daemon is a running flowrecond process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	eof  chan struct{} // closed once the daemon's stdout is drained
}

// startDaemon launches flowrecond on an ephemeral loopback port and reads
// the bound address from its first line of output.
func startDaemon(bin string, w sessionWorkload) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(daemonWorkers)}
	if w.storeCap > 0 {
		args = append(args, "-model-store", fmt.Sprint(w.storeCap))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start flowrecond: %w", err)
	}
	d := &daemon{cmd: cmd, eof: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		defer close(d.eof)
		_, _ = io.Copy(io.Discard, br) // the drain messages on SIGTERM
	}()
	const prefix = "flowrecond listening on http://"
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.stop()
		return nil, fmt.Errorf("flowrecond did not report its address (got %q)", line)
	}
	d.base = "http://" + strings.Fields(strings.TrimPrefix(line, prefix))[0]
	return d, nil
}

// stop sends SIGTERM and waits for the graceful drain, killing the
// process if it has not exited within the bound. Stopping a stopped
// daemon returns at once.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.eof:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.eof
	}
	_ = d.cmd.Wait() // the process has exited; a repeated Wait just errors
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("flowrecond never became ready")
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     loadConns,
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
	}}
}

// streamLine is the union of the session stream's line shapes.
type streamLine struct {
	Type      string             `json:"type"`
	Trials    int                `json:"trials"`
	Attackers []string           `json:"attackers"`
	Trial     int                `json:"trial"`
	Attacker  string             `json:"attacker"`
	Correct   bool               `json:"correct"`
	Accuracy  map[string]float64 `json:"accuracy"`
	Error     string             `json:"error"`
}

// sessionResult is one session as the client saw it.
type sessionResult struct {
	attempt
	raw     []byte // the whole stream, when kept
	invalid string // why the stream contradicts itself, if it does
}

// runSession posts one spec and reads its stream to the end. Times are
// offsets from start.
func runSession(c *http.Client, base string, spec []byte, keep bool, start time.Time) sessionResult {
	var r sessionResult
	r.Sent = time.Since(start)
	resp, err := c.Post(base+"/v1/sessions", "application/json", bytes.NewReader(spec))
	if err != nil {
		r.Outcome = outcomeTransport
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		r.Outcome = outcomeRejected
		return r
	}
	br := bufio.NewReader(resp.Body)
	var raw bytes.Buffer
	var accepted streamLine
	correct := map[string]int{}
	trials := map[int]bool{}
	gotResult := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			r.Bytes += len(line)
			if keep {
				raw.Write(line)
			}
			var l streamLine
			if json.Unmarshal(line, &l) != nil {
				r.invalid = fmt.Sprintf("unparseable line %q", line)
				continue
			}
			switch l.Type {
			case "accepted":
				accepted = l
			case "probe":
				if r.FirstProbe == 0 {
					r.FirstProbe = time.Since(start)
				}
			case "verdict":
				trials[l.Trial] = true
				if l.Correct {
					correct[l.Attacker]++
				}
			case "error":
				r.Outcome = outcomeErrorLine
			case "result":
				r.Done = time.Since(start)
				gotResult = true
				r.invalid = checkResult(accepted, l, trials, correct)
			}
		}
		if err != nil {
			if err != io.EOF {
				r.Outcome = outcomeTransport
			}
			break
		}
	}
	if r.Outcome == outcomeOK && !gotResult {
		r.Outcome = outcomeTruncated
	}
	if keep {
		r.raw = raw.Bytes()
	}
	return r
}

// checkResult verifies the result line against the stream: the trial
// count and every attacker's accuracy recomputed from its verdicts.
func checkResult(accepted, res streamLine, trials map[int]bool, correct map[string]int) string {
	if res.Trials != accepted.Trials || len(trials) != res.Trials {
		return fmt.Sprintf("result reports %d trials, accepted %d, verdicts cover %d", res.Trials, accepted.Trials, len(trials))
	}
	for _, name := range accepted.Attackers {
		want := float64(correct[name]) / float64(res.Trials)
		if got, ok := res.Accuracy[name]; !ok || got != want {
			return fmt.Sprintf("result accuracy %s = %v, verdict lines give %v", name, got, want)
		}
	}
	return ""
}

// setUp launches the daemon and warms its targets; it returns the daemon
// and the time from launch to ready-with-targets-built.
func setUp(o runOpts, w sessionWorkload, src *specSource, c *http.Client) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(o.daemon, w)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(c); err != nil {
		d.stop()
		return nil, 0, err
	}
	conns := loadConns
	if w.warmSeq {
		conns = 1
	}
	specs := src.warmSpecs()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(specs) {
					return
				}
				if r := runSession(c, d.base, encodeSpec(specs[j]), false, t0); r.Outcome != outcomeOK {
					errs <- fmt.Errorf("warm-up session %d: %s", j, r.Outcome)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, since(t0), nil
}

// setUpMedian sets up n times, keeps the last daemon, and reports the
// median set-up time.
func setUpMedian(o runOpts, w sessionWorkload, src *specSource, c *http.Client, n int) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
		}
		var t float64
		var err error
		if d, t, err = setUp(o, w, src, c); err != nil {
			return nil, 0, err
		}
		times = append(times, t)
	}
	return d, median(times), nil
}

// kept is a stream sampled for the determinism check.
type kept struct {
	spec []byte
	raw  []byte
}

// openLoop sends specs at their due offsets over at most loadConns
// connections, keeping the streams marked in keep. A request whose
// connection is still busy goes late; its time still counts from when it
// was due.
func openLoop(c *http.Client, base string, specs [][]byte, keep []bool, due []time.Duration) ([]sessionResult, time.Duration) {
	res := make([]sessionResult, len(specs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				res[i] = runSession(c, base, specs[i], keep[i], start)
				res[i].Due = due[i]
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// closedLoop runs loadConns clients back to back until the deadline,
// keeping the streams the sampler picks.
func closedLoop(c *http.Client, base string, src *specSource, pick *sampler, dur time.Duration) ([]sessionResult, [][]byte, time.Duration) {
	start := time.Now()
	var mu sync.Mutex
	var res []sessionResult
	var specs [][]byte
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				sp, target := src.next()
				spec := encodeSpec(sp)
				t := time.Since(start)
				r := runSession(c, base, spec, pick.take(target), start)
				r.Due = t
				mu.Lock()
				res = append(res, r)
				specs = append(specs, spec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res, specs, time.Since(start)
}

// reference runs specs on a fresh in-process manager with one scheduler
// worker, through the same HTTP handler with no network in between, and
// returns each stream. The determinism contract makes these the bytes
// every daemon must send for the same spec.
func reference(w sessionWorkload, specs [][]byte) ([][]byte, error) {
	m := service.NewManager(service.Config{Workers: 1, StoreSize: w.storeCap})
	defer m.Shutdown()
	mux := http.NewServeMux()
	service.Routes(mux, m)
	out := make([][]byte, len(specs))
	for i, spec := range specs {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(spec)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process reference: status %d: %s", rec.Code, rec.Body.String())
		}
		out[i] = rec.Body.Bytes()
	}
	return out, nil
}

// checkStreams validates every stream and compares the kept ones byte
// for byte with the in-process reference.
func checkStreams(res *result, w sessionWorkload, rs []sessionResult, ks []kept) error {
	for _, r := range rs {
		if r.invalid != "" {
			res.problem("stream contradicts itself: %s", r.invalid)
		}
	}
	if len(ks) == 0 {
		res.problem("no stream was sampled for the determinism check")
	}
	specs := make([][]byte, len(ks))
	for i, k := range ks {
		specs[i] = k.spec
	}
	want, err := reference(w, specs)
	if err != nil {
		return err
	}
	for i, k := range ks {
		if !bytes.Equal(k.raw, want[i]) {
			res.problem("stream %d differs from the in-process Workers=1 reference (%d vs %d bytes)", i, len(k.raw), len(want[i]))
		}
	}
	return nil
}

// runSessions is a session workload. Untraced, it measures set-up, the
// open loop and the closed loop. Traced, it runs tracedSessions sessions
// one at a time, untraced and then traced on a fresh daemon, and
// attributes each traced session's time to the layers below HTTP.
func runSessions(o runOpts, w sessionWorkload) (*result, error) {
	if w.rate <= 0 || w.limit <= 0 {
		return nil, errors.New("session workloads need a positive offered rate and latency limit")
	}
	c := newClient()
	defer c.CloseIdleConnections()
	src := newSpecSource(w, o.seed, 1)
	setups := w.setups
	if o.trace {
		setups = 1 // a traced run reports no set-up time
	}
	d, setup, err := setUpMedian(o, w, src, c, setups)
	if err != nil {
		return nil, err
	}
	defer func() { d.stop() }()
	res := &result{setupS: setup}
	if o.trace {
		return res, tracedSessionRun(o, w, res, c, d)
	}

	nOpen := int(w.rate * openShare * o.seconds.Seconds())
	if nOpen < minOpen {
		nOpen = minOpen
	}
	openSrc := newSpecSource(w, o.seed, 2)
	specs := make([][]byte, nOpen)
	keep := make([]bool, nOpen)
	openPick := &sampler{refTargets: w.refTargets}
	for i := range specs {
		sp, target := openSrc.next()
		specs[i], keep[i] = encodeSpec(sp), openPick.take(target)
	}
	due := openLoopSchedule(o.seed, w.rate, nOpen)
	pid := d.cmd.Process.Pid
	cpu0 := cpuSeconds(pid)
	total0, steal0 := stealTicks()
	openRes, openDur := openLoop(c, d.base, specs, keep, due)

	closedDur := time.Duration(float64(o.seconds) * (1 - openShare))
	closedSrc := newSpecSource(w, o.seed, 3)
	closedRes, closedSpecs, closedElapsed := closedLoop(c, d.base, closedSrc, &sampler{refTargets: w.refTargets}, closedDur)
	cpu := cpuSeconds(pid) - cpu0
	total1, steal1 := stealTicks()
	rss := peakRSSMB(fmt.Sprint(pid))

	openAtts := make([]attempt, len(openRes))
	for i, r := range openRes {
		openAtts[i] = r.attempt
	}
	open := summarizeLoad(openAtts, w.limit)
	var completed []time.Duration
	closedAtts := make([]attempt, len(closedRes))
	var ks []kept
	for i, r := range closedRes {
		closedAtts[i] = r.attempt
		if r.Outcome == outcomeOK {
			completed = append(completed, r.Done)
		}
		if r.raw != nil {
			ks = append(ks, kept{closedSpecs[i], r.raw})
		}
	}
	for i, r := range openRes {
		if keep[i] {
			ks = append(ks, kept{specs[i], r.raw})
		}
	}
	closed := summarizeLoad(closedAtts, w.limit)
	res.attempted = open.Attempted + closed.Attempted
	res.failed = open.Failed + closed.Failed
	if err := checkStreams(res, w, append(openRes, closedRes...), ks); err != nil {
		return nil, err
	}
	if open.Session.TailQ < 0.99 {
		res.problem("open loop completed too few sessions for a p99 (%d)", open.Session.N)
	}
	okSessions := res.attempted - res.failed
	res.e2e = map[string]float64{
		"cpu_ms_per_session": 1e3 * cpu / float64(okSessions),
		"host_steal_frac":    (steal1 - steal0) / (total1 - total0),
		"sessions_per_s":     windowedRate(completed, closedElapsed),
		"session_p50_ms":     windowedP50(openAtts, false),
		"session_p99_ms":     open.Session.at(0.99),
		"first_probe_p50_ms": windowedP50(openAtts, true),
		"first_probe_p99_ms": open.FirstProbe.at(0.99),
		"within_slo_frac":    open.WithinLimit,
		"failed_frac":        float64(res.failed) / float64(res.attempted),
		"peak_rss_mb":        rss,
		"gen_late_p99_ms":    open.Late.at(0.99),
	}
	res.timings = map[string]timing{"session_ms": open.Session, "first_probe_ms": open.FirstProbe, "gen_late_ms": open.Late}
	res.info = fmt.Sprintf("open loop: %d sessions at %.0f/s over %.2f s (limit %v); closed loop: %d sessions over %.2f s; outcomes open %v closed %v; %d streams checked against the reference",
		open.Attempted, w.rate, openDur.Seconds(), w.limit, closed.Attempted, closedElapsed.Seconds(), open.ByOutcome, closed.ByOutcome, len(ks))
	return res, nil
}

// tracedSessionRun sends tracedSessions specs one at a time over HTTP,
// then runs the same specs on in-process managers configured like the
// daemon, each pass from the same cold start: a discarded pass that pays
// the process's first-run costs, one with spans off, and one with live
// spans around Manager.Open, the Session.Next waits and the whole session.
// The difference between the last two is the tracing overhead.
// Last come the configuration and trial side passes, for every
// attributeEvery-th session, which go after everything else so they
// cannot warm a cache a timed call uses; their spans are laid inside the
// traced pass's live spans. The per-layer counters cover the set-up
// sessions too: on sessions-hot they are the only model builds.
func tracedSessionRun(o runOpts, w sessionWorkload, res *result, c *http.Client, d *daemon) error {
	src := newSpecSource(w, o.seed, 2)
	specs := make([][]byte, tracedSessions)
	parsed := make([]service.SessionSpec, tracedSessions)
	pick := &sampler{refTargets: w.refTargets}
	var ks []kept
	overHTTP := make([]sessionResult, tracedSessions)
	for i := range specs {
		var target int
		parsed[i], target = src.next()
		specs[i] = encodeSpec(parsed[i])
		keep := pick.take(target)
		overHTTP[i] = runSession(c, d.base, specs[i], keep, time.Now())
		if keep {
			ks = append(ks, kept{specs[i], overHTTP[i].raw})
		}
	}
	warm := src.warmSpecs()
	if _, err := inProcessPass(w, warm, parsed, &layers{}, nil); err != nil {
		return err
	}
	plain, err := inProcessPass(w, warm, parsed, &layers{}, nil)
	if err != nil {
		return err
	}
	l, tr := &layers{}, newTracer()
	traced, err := inProcessPass(w, warm, parsed, l, tr)
	if err != nil {
		return err
	}

	for i, h := range overHTTP {
		res.attempted++
		if h.Outcome != outcomeOK {
			res.failed++
			if h.Outcome == outcomeRejected {
				l.rejected++
			}
			continue
		}
		l.streamBytes += h.Bytes
		l.streamed++
		l.httpOverhead = append(l.httpOverhead, ms(h.Done-h.Sent)-plain[i].total*1e3)
	}
	for i := range traced {
		l.untracedE2E += plain[i].total
		l.pairedOverhead = append(l.pairedOverhead, traced[i].total-plain[i].total)
		if plain[i].miss != traced[i].miss {
			res.problem("session %d hit the in-process store in one pass and missed in the other", i)
		}
	}

	configs := map[int64]*experiment.NetworkConfig{}
	for i := 0; i < len(traced); i += attributeEvery {
		ip := traced[i]
		spec := parsed[i].Target
		nc := configs[spec.ConfigSeed]
		if nc == nil {
			if nc, err = spec.BuildConfig(); err != nil {
				return err
			}
			configs[spec.ConfigSeed] = nc
		}
		if ip.miss {
			gen, err := l.buildSidePass(spec, int64(i), false)
			if err != nil {
				return err
			}
			l.scaled += tr.place(ip.trace, ip.openSpan, ip.openAt[0], ip.openAt[1], ip.openAt[1]-ip.openAt[0], []vnode{gen})
		}
		roster, err := experiment.StandardAttackers(nc, spec.Probes)
		if err != nil {
			return err
		}
		trials, err := l.trialSidePass(nc, roster, experiment.TrialSeeds(spec.TrialSeed, spec.Trials))
		if err != nil {
			return err
		}
		l.scaled += tr.place(ip.trace, ip.nextSpan, ip.nextAt[0], ip.nextAt[1], ip.nextAt[1]-ip.nextAt[0], trials)
	}
	// The set-up builds ran on a fresh process: their side passes go last,
	// from an empty memo, and belong to no traced session.
	for i, spec := range warm {
		if _, err := l.buildSidePass(spec.Target, int64(i), true); err != nil {
			return err
		}
	}
	if err := checkStreams(res, w, overHTTP, ks); err != nil {
		return err
	}
	res.layers, res.tracer = l, tr
	res.info = fmt.Sprintf("%d sequential sessions over HTTP, then in process untraced and traced; %d streams checked against the reference", tracedSessions, len(ks))
	return nil
}

// buildSidePass times what a store miss runs inside Manager.Open — the
// spec's configuration build, which samples it through
// experiment.GenerateConfig — with the core model cache emptied so both
// compact models are built again, then the layers inside it on the
// configuration it produced. coldMemo empties the u-sum memo before each
// (see configSidePass).
func (l *layers) buildSidePass(spec experiment.RecordingSpec, seed int64, coldMemo bool) (vnode, error) {
	core.DefaultModelCache.Reset()
	if coldMemo {
		core.ResetUSumMemo()
	}
	t0 := time.Now()
	nc, err := spec.BuildConfig()
	if err != nil {
		return vnode{}, err
	}
	d := since(t0)
	l.sampled++
	l.genConfigBusy += d
	l.genConfig = append(l.genConfig, d)
	kids, err := l.configSidePass(nc, seed, coldMemo)
	return vnode{name: "experiment.generate_config", dur: d, kids: kids}, err
}

// inProcSession is one session's timing on an in-process manager: its
// whole time and whether the store missed, and in a traced pass its trace,
// its live open and next-wait spans and their bounds on the tracer's
// clock.
type inProcSession struct {
	total              float64 // seconds
	miss               bool
	trace              int64
	openSpan, nextSpan telemetry.SpanID
	openAt, nextAt     [2]float64
}

// inProcessPass runs the set-up sessions and then specs, one at a time,
// on a fresh manager configured like the daemon, after emptying the
// process's model cache and u-sum memo so every pass starts alike. With a
// tracer each session records live spans.
func inProcessPass(w sessionWorkload, warm, specs []service.SessionSpec, l *layers, tr *tracer) ([]inProcSession, error) {
	core.DefaultModelCache.Reset()
	core.ResetUSumMemo()
	m := service.NewManager(service.Config{Workers: daemonWorkers, StoreSize: w.storeCap})
	defer m.Shutdown()
	for _, spec := range warm {
		if _, err := l.inProcess(m, spec, nil); err != nil {
			return nil, err
		}
	}
	out := make([]inProcSession, len(specs))
	for i, spec := range specs {
		var err error
		if out[i], err = l.inProcess(m, spec, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inProcess runs spec on the in-process manager, timing Manager.Open and
// the Session.Next waits, and reads the store's hit or miss from its
// counters. With a tracer it records the session's spans as it goes.
func (l *layers) inProcess(m *service.Manager, spec service.SessionSpec, tr *tracer) (inProcSession, error) {
	var s inProcSession
	before := m.Store().Stats()
	cBefore := core.DefaultModelCache.Stats()
	s.trace = tr.newTrace()
	t0 := time.Now()
	root := tr.start(s.trace, 0, "service.session", t0)
	s.openSpan = tr.start(s.trace, root, "service.open", t0)
	sess, err := m.Open(spec)
	if err != nil {
		return s, fmt.Errorf("in-process open: %w", err)
	}
	t1 := time.Now()
	tr.end(s.openSpan, t1)
	after := m.Store().Stats()
	cAfter := core.DefaultModelCache.Stats()
	t2 := time.Now()
	s.nextSpan = tr.start(s.trace, root, "service.next_wait", t2)
	for n := 0; ; n++ {
		_, ok, err := sess.Next()
		if n == 0 {
			l.firstTrialWait = append(l.firstTrialWait, since(t2)*1e3)
		}
		if err != nil {
			m.CloseSession(sess)
			return s, fmt.Errorf("in-process session: %w", err)
		}
		if !ok {
			break
		}
	}
	t3 := time.Now()
	tr.end(s.nextSpan, t3)
	m.CloseSession(sess)
	t4 := time.Now()
	tr.end(root, t4)
	s.total = t4.Sub(t0).Seconds()
	if tr != nil {
		s.openAt = [2]float64{tr.at(t0), tr.at(t1)}
		s.nextAt = [2]float64{tr.at(t2), tr.at(t3)}
	}

	open := t1.Sub(t0).Seconds()
	s.miss = after.Misses > before.Misses
	l.storeHits += after.Hits - before.Hits
	l.storeMisses += after.Misses - before.Misses
	l.storeBuilds += after.Builds - before.Builds
	l.storeEvictions += after.Evictions - before.Evictions
	l.cacheHits += cAfter.Hits - cBefore.Hits
	l.cacheMisses += cAfter.Misses - cBefore.Misses
	l.nextWait += t3.Sub(t2).Seconds()
	if s.miss {
		l.openMiss = append(l.openMiss, open*1e3)
	} else {
		l.openHit = append(l.openHit, open*1e3)
	}
	return s, nil
}
