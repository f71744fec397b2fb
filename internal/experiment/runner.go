package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

// TrialRunner is the trial engine. Each trial generates one traffic
// window, replays it through a continuous-time switch table, lets every
// attacker probe its own replica of the resulting table (probes perturb
// the cache), and scores the verdicts against the window's ground truth.
//
// RunAll executes a whole run on a worker pool and assembles it in trial
// order. Run executes a single trial from its seed, for callers that
// schedule trials themselves — the flowrecond batched scheduler
// interleaves trials from many sessions on one pool. A runner is
// immutable after construction and safe for concurrent use: every trial
// draws all of its randomness from its own seed, so a (runner, trial,
// seed) triple produces the same result on any goroutine in any order.
type TrialRunner struct {
	env *trialEnv
}

// RunnerOptions configures what every trial does. The zero value runs
// Poisson traffic with no telemetry, no faults and no detection.
type RunnerOptions struct {
	// Source generates each trial's traffic window (PoissonSource when
	// nil).
	Source TraceSource
	// Registry receives the experiment metrics and the trial tables'
	// flowtable metrics; nil disables them.
	Registry *telemetry.Registry
	// Faults injects probe-level faults into the trial loop: each probe
	// is independently lost with probability LossProb (it never reaches
	// the table — no install side effect, no observation) and a delivered
	// probe's observed delay is inflated by exponential jitter with mean
	// JitterMeanMs (which can push a hit past the classifier threshold).
	// Transport-level knobs (resets, stalls, slowdown) have no meaning at
	// this abstraction and are ignored. All fault randomness comes from
	// streams derived from Faults.Seed and the trial index — never from
	// the trial RNG — so the zero profile leaves every draw, verdict and
	// recording byte-identical to a fault-free run, and a faulty run is
	// reproducible from (TrialSeed, Faults) alone at any parallelism.
	Faults faults.Profile
	// Detect attaches a fresh streaming anomaly detector to the
	// controller path of every (trial, attacker) table replica: it
	// observes each replay lookup (the benign background) and each
	// delivered probe. Run returns the replicas in TrialResult.Detectors;
	// RunAll merges them into TrialOptions.DetectAggregate. Nil disables
	// detection entirely.
	Detect *detect.Config
}

// TrialResult is one trial's structured outcome.
type TrialResult struct {
	Trial int
	// Truth is whether the target flow actually occurred in the window.
	Truth bool
	// Attackers holds each attacker's probes, outcomes, loss mask and
	// verdict, index-aligned with the roster given to NewTrialRunner.
	Attackers []trialrec.AttackerTrial
	// Detectors are the per-attacker detector replicas (with
	// RunnerOptions.Detect only), in roster order.
	Detectors []*detect.Detector
}

// NewTrialRunner builds a reusable trial executor for one configuration
// and attacker roster. The roster is shared across every trial
// (attackers are stateless across trials), so build it once per model.
// A zero Measurement means the paper-calibrated DefaultMeasurement.
func NewTrialRunner(nc *NetworkConfig, attackers []core.Attacker, meas Measurement, opts RunnerOptions) *TrialRunner {
	if meas == (Measurement{}) {
		meas = DefaultMeasurement()
	}
	source := opts.Source
	if source == nil {
		source = PoissonSource
	}
	env := &trialEnv{
		nc:        nc,
		attackers: attackers,
		names:     make([]string, len(attackers)),
		meas:      meas,
		source:    source,
		reg:       opts.Registry,
		tm:        newTrialMetrics(opts.Registry),
		faults:    opts.Faults,
		horizon:   float64(nc.Params.Steps()) * nc.Params.Delta,
		detect:    opts.Detect,
		detAgg:    opts.Detect != nil,
	}
	for i, a := range attackers {
		env.names[i] = a.Name()
	}
	return &TrialRunner{env: env}
}

// Names returns the roster's attacker names in order.
func (r *TrialRunner) Names() []string { return r.env.names }

// Horizon returns the trial window length in seconds.
func (r *TrialRunner) Horizon() float64 { return r.env.horizon }

// Run executes one trial from its seed. Safe to call concurrently.
func (r *TrialRunner) Run(trial int, seed int64) (TrialResult, error) {
	out := r.env.runTrial(trial, stats.NewRNG(seed))
	if out.err != nil {
		return TrialResult{}, out.err
	}
	return TrialResult{
		Trial:     trial,
		Truth:     out.truth,
		Attackers: out.atts,
		Detectors: out.dets,
	}, nil
}

// TrialOptions says where a RunAll run's output goes. The zero value runs
// the trials one after another and returns only the aggregate results.
type TrialOptions struct {
	// Recorder streams the forensic trial recording (traffic window,
	// per-attacker probes/outcomes/verdicts/belief steps, spans). Nil
	// disables recording.
	Recorder *trialrec.Recorder
	// Spans collects the causal span tree of each trial. When nil and a
	// Recorder is set, an internal deterministic recorder is used so
	// recordings always carry spans and stay byte-reproducible. When both
	// are set, spans are drained into the recording each trial rather
	// than accumulating here.
	Spans *telemetry.SpanRecorder
	// Events receives one wide event per probe decision, per trial
	// verdict, per injected probe fault and per detector flag. Workers
	// buffer their trial's events locally and assembly appends them in
	// trial order, so (with the log's wall clock disabled) the event
	// stream is byte-identical at every parallelism level. Nil disables
	// events.
	Events *telemetry.EventLog
	// DetectAggregate, with RunnerOptions.Detect set, receives every
	// trial detector merged in strict (trial, attacker) order during
	// assembly — the defender's whole-run view served at /debug/detect.
	// Nil skips the merge and the per-trial detector retention it needs.
	DetectAggregate *detect.Detector
	// PerTrial, with RunnerOptions.Registry set, returns a cumulative
	// registry snapshot per trial. Snapshots are order-sensitive, so
	// PerTrial runs on one worker regardless of Parallelism.
	PerTrial bool
	// Parallelism is the number of worker goroutines running trials
	// concurrently; values ≤ 1 run the trials inline on the caller's
	// goroutine.
	Parallelism int
}

// RunAll executes trials trials and returns the per-attacker results,
// plus the per-trial registry snapshots when opts.PerTrial is set.
// Trial t always runs on the t-th seed drawn from rng (see TrialSeeds),
// and its output is assembled strictly in trial order, so results,
// recordings and event streams are identical at every parallelism level
// and whatever sinks are attached: observers never draw from a trial's
// stream. That is what makes recordings replayable.
func (r *TrialRunner) RunAll(trials int, rng *stats.RNG, opts TrialOptions) ([]AttackerResult, []TrialRecord, error) {
	if trials < 0 {
		return nil, nil, fmt.Errorf("experiment: negative trial count %d", trials)
	}
	rec := opts.Recorder
	spansOut := opts.Spans
	if spansOut == nil && rec.Enabled() {
		spansOut = telemetry.NewSpanRecorder(0)
		spansOut.SetWallClock(nil) // recordings must be pure functions of the seeds
	}
	env := *r.env
	env.observing = spansOut != nil
	env.recording = rec.Enabled()
	env.eventing = opts.Events != nil
	env.noWall = opts.Spans == nil
	env.detAgg = env.detect != nil && opts.DetectAggregate != nil

	reg := env.reg
	perTrial := opts.PerTrial && reg != nil
	verdicts := make([][4]*telemetry.Counter, len(env.attackers))
	results := make([]AttackerResult, len(env.attackers))
	for i, name := range env.names {
		results[i].Name = name
		verdicts[i] = verdictCounters(reg, name)
	}

	// assemble folds trial t's output into the aggregate results, the
	// event log, the detector aggregate and the recording. It must be
	// called in trial order.
	var records []TrialRecord
	assemble := func(t int, out trialOut) error {
		if out.err != nil {
			return out.err
		}
		for i, at := range out.atts {
			score(&results[i], at.Verdict, out.truth)
		}
		// In-order batch append keeps the event stream byte-identical at
		// every parallelism level (safe on a nil log).
		opts.Events.Append(out.events)
		// The aggregate defender view folds in strict (trial, attacker)
		// order so the merged state is a pure function of the seeds.
		for _, d := range out.dets {
			opts.DetectAggregate.Merge(d)
		}
		if env.observing {
			spansOut.Import(out.spans)
		}
		if env.recording {
			rec.BeginTrial(t, out.truth, out.arrivals)
			for _, at := range out.atts {
				rec.Attacker(at)
			}
			rec.Spans(spansOut.Drain())
			if err := rec.EndTrial(); err != nil {
				return err
			}
		}
		if perTrial {
			records = append(records, TrialRecord{Trial: t, Truth: out.truth, Telemetry: reg.Snapshot()})
		}
		return nil
	}

	workers := max(1, min(opts.Parallelism, trials))
	if perTrial {
		workers = 1 // cumulative snapshots are order-sensitive
	}
	busy := reg.Gauge("experiment_trial_workers_busy")
	reg.Gauge("experiment_trial_workers").Set(int64(workers))

	// Assembly streams behind the workers instead of waiting for the
	// whole run: a frontier walks forward over the completed trials,
	// folding each in exact trial order the moment it and all its
	// predecessors are done. The event log and recording therefore fill
	// during a parallel run (what /debug/events and -events-out observe)
	// while staying byte-identical to a one-worker run, and only trials
	// that finished ahead of the frontier are held.
	seeds := trialSeeds(rng, trials)
	var (
		next     atomic.Int64
		asmMu    sync.Mutex
		pending  = make(map[int]trialOut)
		frontier int
		asmErr   error
	)
	finish := func(t int, out trialOut) {
		asmMu.Lock()
		defer asmMu.Unlock()
		if t != frontier {
			pending[t] = out // finished ahead of the frontier
			return
		}
		for ok := true; ok; out, ok = pending[frontier] {
			delete(pending, frontier)
			if asmErr == nil {
				if asmErr = assemble(frontier, out); asmErr != nil {
					next.Store(int64(trials)) // hand out no further trials
				}
			}
			frontier++
		}
	}
	work := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= trials {
				return
			}
			busy.Add(1)
			out := env.runTrial(t, stats.NewRNG(seeds[t]))
			// The confusion-matrix counters are atomic and commutative, so
			// they are fed the moment a trial finishes, out of trial order —
			// which keeps the /debug/live accuracy view current during a
			// parallel run instead of jumping from zero to final at the end.
			if out.err == nil {
				for i, at := range out.atts {
					countVerdict(verdicts[i], at.Verdict, out.truth)
				}
			}
			busy.Add(-1)
			finish(t, out)
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if asmErr != nil {
		return nil, nil, asmErr
	}
	return results, records, nil
}

// TrialSeeds derives the per-trial seed vector of a RunAll run rooted at
// seed: trial t always runs on the t-th draw, whatever order trials
// execute in.
func TrialSeeds(seed int64, trials int) []int64 {
	return trialSeeds(stats.NewRNG(seed), trials)
}

// trialSeeds draws trials per-trial seeds from rng. rng.Fork is
// NewRNG(rng.Int63()), so trial t runs on the stream the t-th Fork call
// would return.
func trialSeeds(rng *stats.RNG, trials int) []int64 {
	seeds := make([]int64, trials)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	return seeds
}
