package experiment

import (
	"fmt"

	"flowrecon/internal/core"
	"flowrecon/internal/detect"
	"flowrecon/internal/faults"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
	"flowrecon/internal/workload"
)

// trialEnv is the invariant state shared by every trial of a run. A
// TrialRunner builds it once; RunAll works on a copy with its sink flags
// (observing, recording, eventing, noWall, detAgg) set.
type trialEnv struct {
	nc        *NetworkConfig
	attackers []core.Attacker
	names     []string
	meas      Measurement
	source    TraceSource
	reg       *telemetry.Registry
	tm        trialMetrics
	faults    faults.Profile
	horizon   float64
	observing bool // collect spans and belief steps
	recording bool // also keep the arrivals for the recorder
	eventing  bool // buffer wide events per trial for in-order assembly
	noWall    bool // zero wall-clock in trial spans (deterministic output)
	detect    *detect.Config
	detAgg    bool // retain per-trial detectors for the caller to merge
}

// trialOut is everything one trial produces, in a form that can be
// assembled into results/recordings strictly in trial order regardless of
// completion order.
type trialOut struct {
	truth    bool
	atts     []trialrec.AttackerTrial // roster order; Belief only when observing
	arrivals []workload.Arrival       // recording only
	spans    []telemetry.Span         // observing only; IDs/traces local to the trial
	events   []telemetry.WideEvent    // eventing only; appended in trial order
	dets     []*detect.Detector       // detAgg only; merged in trial order
	err      error
}

// runTrial executes one complete trial: generate the traffic window,
// replay it per attacker, probe, and decide. Every random draw — the
// traffic window, probe classification noise, random verdicts — comes
// from rng (the trial's own stream), and fault draws come from a stream
// derived from (Faults.Seed, trial index) alone, so trials are
// independent, safe to run concurrently, and identical at every
// parallelism level.
func (env *trialEnv) runTrial(trial int, rng *stats.RNG) trialOut {
	var out trialOut
	flt := env.faults.Stream(int64(trial))
	flt.SetTelemetry(env.reg, "experiment")
	trace, err := env.source(env.nc.Rates, env.horizon, rng)
	if err != nil {
		out.err = err
		return out
	}
	out.truth = trace.OccurredWithin(env.nc.Target, env.horizon, env.horizon)
	if out.truth {
		env.tm.truthTrue.Inc()
	} else {
		env.tm.truthFalse.Inc()
	}

	var spans *telemetry.SpanRecorder
	var traceID int64
	var trialSpan telemetry.SpanID
	if env.observing {
		spans = telemetry.NewSpanRecorder(0)
		if env.noWall {
			spans.SetWallClock(nil)
		}
		traceID = spans.NewTrace()
		trialSpan = spans.Start(traceID, 0, "trial", "experiment", 0)
		if out.truth {
			spans.Annotate(trialSpan, int(env.nc.Target), -1, "truth=present")
		} else {
			spans.Annotate(trialSpan, int(env.nc.Target), -1, "truth=absent")
		}
	}
	if env.recording {
		out.arrivals = trace.Arrivals()
	}

	out.atts = make([]trialrec.AttackerTrial, 0, len(env.attackers))
	if env.detAgg {
		out.dets = make([]*detect.Detector, 0, len(env.attackers))
	}
	for i, a := range env.attackers {
		var attSpan telemetry.SpanID
		var attCtx telemetry.SpanContext
		if env.observing {
			attSpan, attCtx = spans.StartCtx(spans.Context(traceID, trialSpan), "attacker", env.names[i], 0)
		}
		var det *detect.Detector
		if env.detect != nil {
			det = detect.New(*env.detect)
			if env.eventing {
				name := env.names[i]
				det.OnFlag(func(v detect.Verdict) {
					ev := telemetry.NewWideEvent("detect.flag")
					ev.Node = "detect"
					ev.T = v.T
					ev.Trial = trial
					ev.Attacker = name
					ev.Flow = v.Source
					ev.Outcome = v.Reason
					ev.Detail = fmt.Sprintf("score=%.2f obs=%d", v.Score, v.Obs)
					out.events = append(out.events, ev)
				})
			}
		}
		var pace core.Pacing
		if p, ok := a.(core.Paced); ok {
			pace = p.ProbePacing()
		}
		obs := &probeObserver{spans: spans, ctx: attCtx, trial: trial, name: env.names[i]}
		if env.eventing {
			obs.events = &out.events
		}
		if env.observing {
			if bp, ok := a.(core.BeliefProvider); ok {
				obs.tracker = bp.Selector().NewBeliefTracker()
			}
		}
		replaySpan := spans.Start(traceID, attSpan, "replay", "experiment", 0)
		tbl, err := replayTrace(env.nc, trace, env.reg, det)
		spans.End(replaySpan, env.horizon)
		if err != nil {
			out.err = err
			return out
		}
		var outcomes, lost []bool
		if seq, ok := a.(SequentialAttacker); ok {
			outcomes, lost = probeSequential(env.nc, tbl, seq, env.horizon, env.meas, rng, flt, &env.tm, obs, det, pace)
		} else {
			outcomes, lost = probeTable(env.nc, tbl, a.Probes(), env.horizon, env.meas, rng, flt, &env.tm, obs, det, pace)
		}
		var verdict bool
		if lt, ok := a.(core.LossTolerant); ok && anyLost(lost) {
			verdict = lt.DecideWithLoss(outcomes, lost, rng)
		} else {
			// Lost probes fall back to their miss classification for
			// attackers that cannot represent "no observation".
			verdict = a.Decide(outcomes, rng)
		}
		out.atts = append(out.atts, trialrec.AttackerTrial{
			Name:     env.names[i],
			Probes:   obs.probes,
			Outcomes: outcomes,
			Lost:     lost,
			Verdict:  verdict,
			Belief:   obs.belief,
		})
		if env.detAgg {
			out.dets = append(out.dets, det)
		}
		if env.eventing {
			ev := telemetry.NewWideEvent("trial.verdict")
			ev.Node = "experiment"
			ev.T = env.horizon
			ev.Trial = trial
			ev.Attacker = env.names[i]
			ev.Trace = traceID
			ev.Verdict = presenceStr(verdict)
			ev.Truth = presenceStr(out.truth)
			if verdict == out.truth {
				ev.Outcome = "correct"
			} else {
				ev.Outcome = "wrong"
			}
			out.events = append(out.events, ev)
		}
		if env.observing {
			decSpan := spans.Start(traceID, attSpan, "decision", env.names[i], env.horizon)
			spans.Annotate(decSpan, -1, -1, decisionDetail(verdict, out.truth))
			spans.End(decSpan, env.horizon)
			spans.End(attSpan, env.horizon)
		}
	}
	env.tm.trials.Inc()
	if env.observing {
		spans.End(trialSpan, env.horizon)
		out.spans = spans.Drain()
	}
	return out
}

// anyLost reports whether the loss mask marks any probe lost (nil — the
// fault-free case — never does).
func anyLost(lost []bool) bool {
	for _, l := range lost {
		if l {
			return true
		}
	}
	return false
}

func decisionDetail(verdict, truth bool) string {
	v := presenceStr(verdict)
	if verdict == truth {
		return "verdict=" + v + " correct"
	}
	return "verdict=" + v + " wrong"
}

func presenceStr(present bool) string {
	if present {
		return "present"
	}
	return "absent"
}
