package main

import (
	"fmt"
	"time"

	"flowrecon/internal/core"
	"flowrecon/internal/experiment"
	"flowrecon/internal/flowtable"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

// layers accumulates the traced run's per-layer counters. Busy times are
// in seconds and come from the layer's own public functions, timed
// either around the real call or in a side pass on the same inputs.
type layers struct {
	rulesGen                        float64
	genConfig                       []float64 // per built configuration
	genConfigBusy                   float64
	sampled                         int
	compactBuild                    float64
	compactCount, compactStates     int
	selectorEvolve, bestProbe       float64
	cacheHits, cacheMisses          uint64
	trial                           []float64
	traceGen                        float64
	arrivals                        int
	replay                          float64
	lookups, tableHits, evictions   int64
	decide                          float64
	openHit, openMiss               []float64 // ms
	storeHits, storeMisses          uint64
	storeBuilds, storeEvictions     uint64
	firstTrialWait                  []float64 // ms
	nextWait                        float64
	httpOverhead                    []float64 // ms
	streamBytes, streamed, rejected int
	tracedE2E, untracedE2E          float64
	pairedOverhead                  []float64 // per session, traced minus untraced, seconds
	scaled                          float64   // side-pass time beyond its parent span
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// withoutFlow is the target-conditioned twin configuration the selector
// builds its second chain from: the target's rate is zero.
func withoutFlow(cfg core.Config, target int) core.Config {
	out := cfg
	out.Rates = append([]float64(nil), cfg.Rates...)
	out.Rates[target] = 0
	return out
}

// configSidePass times the layers experiment.GenerateConfig runs inside
// itself, on the configuration it produced: rule generation, both cold
// compact-model builds, the selector's chain evolution and probe
// selection. With coldMemo the u-sum memo is emptied first: right for a
// freshly sampled configuration, whose real build found none of its
// estimates memoized. Without it the builds see the memo as the process
// left it, as a recurring target's rebuild does.
func (l *layers) configSidePass(nc *experiment.NetworkConfig, seed int64, coldMemo bool) ([]vnode, error) {
	p := nc.Params
	gc := rules.GenerateConfig{
		NumFlows: p.NumFlows,
		NumRules: p.NumRules,
		MaskBits: p.MaskBits,
		Timeouts: rules.DefaultGenerateConfig(p.Delta).Timeouts,
	}
	t0 := time.Now()
	if _, err := rules.Generate(gc, stats.NewRNG(seed)); err != nil {
		return nil, fmt.Errorf("side pass rules.Generate: %w", err)
	}
	dRules := since(t0)

	if coldMemo {
		core.ResetUSumMemo()
	}
	var builds []vnode
	var m *core.CompactModel
	for _, cfg := range []core.Config{nc.Core, withoutFlow(nc.Core, int(nc.Target))} {
		t0 = time.Now()
		built, err := core.NewCompactModelWorkers(cfg, p.USum, 0)
		if err != nil {
			return nil, fmt.Errorf("side pass compact build: %w", err)
		}
		d := since(t0)
		if m == nil {
			m = built
		}
		builds = append(builds, vnode{name: "core.compact_build", dur: d})
		l.compactBuild += d
		l.compactCount++
		l.compactStates += built.NumStates()
	}

	t0 = time.Now()
	sel, err := core.NewSelectorWithModel(m, nc.Core, nc.Target, p.Steps(), p.USum)
	if err != nil {
		return nil, fmt.Errorf("side pass selector: %w", err)
	}
	dEvolve := since(t0)

	t0 = time.Now()
	sel.Evaluate(nc.Target)
	sel.Best(sel.AllFlows())
	sel.Best(sel.FlowsExcept(nc.Target))
	dBest := since(t0)

	l.rulesGen += dRules
	l.selectorEvolve += dEvolve
	l.bestProbe += dBest
	out := []vnode{{name: "rules.generate", dur: dRules}}
	out = append(out, builds...)
	return append(out, vnode{name: "core.selector_evolve", dur: dEvolve}, vnode{name: "core.best_probe", dur: dBest}), nil
}

// trialSidePass runs one configuration's trials through
// experiment.TrialRunner and, on each trial's inputs, the layers a trial
// runs inside itself: Poisson trace generation, the flow-table replay of
// that trace (once per attacker, as the trial does), and each attacker's
// verdict.
func (l *layers) trialSidePass(nc *experiment.NetworkConfig, attackers []core.Attacker, seeds []int64) ([]vnode, error) {
	runner := experiment.NewTrialRunner(nc, attackers, experiment.DefaultMeasurement(), experiment.RunnerOptions{})
	horizon := runner.Horizon()
	p := nc.Params
	out := make([]vnode, 0, len(seeds))
	for t, seed := range seeds {
		t0 := time.Now()
		res, err := runner.Run(t, seed)
		if err != nil {
			return nil, fmt.Errorf("side pass trial: %w", err)
		}
		dTrial := since(t0)

		t0 = time.Now()
		tr, err := experiment.PoissonSource(nc.Rates, horizon, stats.NewRNG(seed))
		if err != nil {
			return nil, fmt.Errorf("side pass trace: %w", err)
		}
		dGen := since(t0)
		l.arrivals += tr.Len()

		t0 = time.Now()
		for range attackers {
			tbl, err := flowtable.New(nc.Rules, p.CacheSize, p.Delta)
			if err != nil {
				return nil, fmt.Errorf("side pass table: %w", err)
			}
			for _, a := range tr.Arrivals() {
				if _, hit := tbl.Lookup(a.Flow, a.Time); !hit {
					if j, ok := nc.Rules.HighestCovering(a.Flow); ok {
						tbl.Install(j, a.Time)
					}
				}
			}
			st := tbl.Stats()
			l.lookups += st.Lookups
			l.tableHits += st.Hits
			l.evictions += st.Evictions
		}
		dReplay := since(t0)

		t0 = time.Now()
		rng := stats.NewRNG(seed)
		for i, a := range attackers {
			a.Decide(res.Attackers[i].Outcomes, rng)
		}
		dDecide := since(t0)

		l.trial = append(l.trial, dTrial)
		l.traceGen += dGen
		l.replay += dReplay
		l.decide += dDecide
		out = append(out, vnode{name: "experiment.trial", dur: dTrial, kids: []vnode{
			{name: "workload.trace_gen", dur: dGen},
			{name: "flowtable.replay", dur: dReplay},
			{name: "core.decide", dur: dDecide},
		}})
	}
	return out, nil
}

// ratio returns a/(a+b), or 0 with nothing counted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// orZero maps NaN (no samples) to 0: a layer the workload never reaches
// reports zero work.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// overhead estimates what tracing added to the traced end-to-end time:
// the median of the per-session differences between the traced and the
// untraced pass, times the session count. The median keeps a few sessions
// that a busy host slowed in one pass from deciding the estimate.
func (l *layers) overhead() float64 {
	return orZero(median(l.pairedOverhead)) * float64(len(l.pairedOverhead))
}

// metrics returns every per-layer metric. Layers the workload never
// reaches report 0.
func (l *layers) metrics() []metricValue {
	perTrial := 0.0
	if n := len(l.trial); n > 0 {
		perTrial = float64(l.arrivals) / float64(n)
	}
	statesMean := 0.0
	if l.compactCount > 0 {
		statesMean = float64(l.compactStates) / float64(l.compactCount)
	}
	bytesPer := 0.0
	if l.streamed > 0 {
		bytesPer = float64(l.streamBytes) / float64(l.streamed)
	}
	toMs := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	wait := summarize(l.firstTrialWait)
	return []metricValue{
		{"rules.generate.busy_s", l.rulesGen},
		{"experiment.generate_config.busy_s", l.genConfigBusy},
		{"experiment.generate_config.p50_ms", orZero(percentile(toMs(l.genConfig), 0.5))},
		{"experiment.configs_sampled", float64(l.sampled)},
		{"core.compact_build.busy_s", l.compactBuild},
		{"core.compact_build.count", float64(l.compactCount)},
		{"core.compact_states.mean", statesMean},
		{"core.selector_evolve.busy_s", l.selectorEvolve},
		{"core.best_probe.busy_s", l.bestProbe},
		{"core.model_cache.hit_ratio", ratio(float64(l.cacheHits), float64(l.cacheMisses))},
		{"experiment.trial.busy_s", sum(l.trial)},
		{"experiment.trial.p50_us", orZero(percentile(l.trial, 0.5) * 1e6)},
		{"workload.trace_gen.busy_s", l.traceGen},
		{"workload.arrivals_per_trial", perTrial},
		{"flowtable.replay.busy_s", l.replay},
		{"flowtable.lookups", float64(l.lookups)},
		{"flowtable.hit_ratio", ratio(float64(l.tableHits), float64(l.lookups-l.tableHits))},
		{"flowtable.evictions", float64(l.evictions)},
		{"core.decide.busy_s", l.decide},
		{"service.open_hit.p50_ms", orZero(percentile(l.openHit, 0.5))},
		{"service.open_miss.p50_ms", orZero(percentile(l.openMiss, 0.5))},
		{"service.store.hit_ratio", ratio(float64(l.storeHits), float64(l.storeMisses))},
		{"service.store.builds", float64(l.storeBuilds)},
		{"service.store.evictions", float64(l.storeEvictions)},
		{"service.first_trial_wait.p50_ms", orZero(wait.at(0.5))},
		{"service.first_trial_wait.p99_ms", orZero(wait.at(0.99))},
		{"service.next_wait.busy_s", l.nextWait},
		{"service.http_overhead.p50_ms", orZero(percentile(l.httpOverhead, 0.5))},
		{"service.stream_bytes_per_session", bytesPer},
		{"service.rejected", float64(l.rejected)},
		{"trace.e2e_s", l.tracedE2E},
		{"trace.overhead_s", l.overhead()},
		{"trace.scaled_s", l.scaled},
	}
}
