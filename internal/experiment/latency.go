package experiment

import (
	"fmt"
	"time"

	"flowrecon/internal/controller"
	"flowrecon/internal/detect"
	"flowrecon/internal/flows"
	"flowrecon/internal/netsim"
	"flowrecon/internal/openflow"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

// LatencyReport reproduces the §VI-A latency characterization: the
// hit/miss RTT distributions an attacker observes and how cleanly the
// 1 ms threshold separates them. Two measurements are taken: the
// virtual-time network simulator (the Mininet substitute) and a real
// TCP loopback round trip through the OpenFlow substrate.
type LatencyReport struct {
	// SimHitMs/SimMissMs summarize echo RTTs (milliseconds) through the
	// simulated Stanford-like fabric.
	SimHitMs, SimMissMs stats.Summary
	// ThresholdMs is the classification threshold (1 ms, §VI-A).
	ThresholdMs float64
	// SimMisclassified is the fraction of probes the threshold would
	// misclassify.
	SimMisclassified float64
	// OFHitMs/OFMissMs summarize real-TCP OpenFlow injections.
	OFHitMs, OFMissMs stats.Summary
	// OFMisclassified is the threshold error rate over the TCP run.
	OFMisclassified float64
}

// simShards is the shard count of the backbone fleet behind the netsim
// measurements. The 16-switch backbone is too small for sharding to pay,
// and the fleet's results are identical at any shard count
// (TestSimMeasurementsShardInvariant).
const simShards = 1

// backboneFleet builds the §VI-A evaluation fabric: the Stanford-like
// backbone with 9-entry tables and 0.1 s steps, nhosts source hosts and
// the attacker on the reactive ingress yoza_rtr, the server on boza_rtr.
// The caller closes the fleet.
func backboneFleet(policy *rules.Set, opts controller.Options, nhosts int, seed int64, shards int, det *detect.Detector) (*netsim.Fleet, netsim.EvaluationSetup, error) {
	base := flows.MakeIPv4(10, 0, 1, 0)
	f, err := netsim.NewFleet(netsim.FleetConfig{
		Topo:     netsim.StanfordBackbone(),
		Capacity: 9,
		StepSec:  0.1,
		Ctrl:     netsim.NewControllerModel(policy, opts),
		Universe: flows.ClientServerUniverse(base, nhosts),
		Shards:   shards,
		Seed:     seed,
		Detector: det,
	})
	if err != nil {
		return nil, netsim.EvaluationSetup{}, err
	}
	setup, err := netsim.AttachEvaluationHosts(f, base, nhosts, "yoza_rtr", "boza_rtr")
	if err != nil {
		f.Close()
		return nil, netsim.EvaluationSetup{}, err
	}
	return f, setup, nil
}

// firstCovered returns the lowest of the first n flows the policy covers
// reactively.
func firstCovered(rs *rules.Set, n int) (flows.ID, error) {
	covered := rs.CoveredFlows()
	for f := 0; f < n; f++ {
		if covered.Contains(flows.ID(f)) {
			return flows.ID(f), nil
		}
	}
	return 0, fmt.Errorf("experiment: policy covers no evaluation flow")
}

// MeasureSimLatency measures echo RTTs through the simulated fabric:
// each round sends one cold (miss) probe and one warm (hit) probe, with
// rules allowed to expire between rounds.
func MeasureSimLatency(samples int, seed int64) (*LatencyReport, error) {
	return measureSimLatency(samples, seed, simShards)
}

func measureSimLatency(samples int, seed int64, shards int) (*LatencyReport, error) {
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.1), stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	flow, err := firstCovered(rs, 16)
	if err != nil {
		return nil, err
	}
	f, setup, err := backboneFleet(rs, controller.Options{}, 16, seed+1, shards, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src := setup.SourceHosts[flow]

	report := &LatencyReport{ThresholdMs: 1.0}
	var hits, misses []float64
	at := 0.0
	for i := 0; i < samples; i++ {
		miss, err := f.SendEcho(src, setup.Destination, at)
		if err != nil {
			return nil, err
		}
		hit, err := f.SendEcho(src, setup.Destination, at+0.05)
		if err != nil {
			return nil, err
		}
		at += 5 // beyond the maximum idle timeout (1 s): rules expire
		f.RunUntil(at)
		if st := f.Echo(miss); st.Delivered && st.Missed {
			misses = append(misses, st.RTT*1e3)
		}
		if st := f.Echo(hit); st.Delivered && !st.Missed {
			hits = append(hits, st.RTT*1e3)
		}
	}
	report.SimHitMs = stats.Summarize(hits)
	report.SimMissMs = stats.Summarize(misses)
	report.SimMisclassified = misclassified(hits, misses, report.ThresholdMs)
	return report, nil
}

// MeasureOpenFlowLatency measures Inject delays through the real-TCP
// OpenFlow switch/controller pair on loopback, with the controller's
// processing delay emulating the paper's Ryu compute time.
func MeasureOpenFlowLatency(samples int, seed int64, processing time.Duration) (stats.Summary, stats.Summary, float64, error) {
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 16)
	rs, err := rules.Generate(rules.DefaultGenerateConfig(0.1), stats.NewRNG(seed))
	if err != nil {
		return stats.Summary{}, stats.Summary{}, 0, err
	}
	ctl := openflow.NewController(rs, universe, openflow.ControllerOptions{
		ProcessingDelay: processing,
		StepSeconds:     0.1,
	})
	addr, err := ctl.Listen("127.0.0.1:0")
	if err != nil {
		return stats.Summary{}, stats.Summary{}, 0, err
	}
	defer ctl.Close()
	sw, err := openflow.NewSwitch(1, rs, universe, 9, 0.1)
	if err != nil {
		return stats.Summary{}, stats.Summary{}, 0, err
	}
	if err := sw.Connect(addr); err != nil {
		return stats.Summary{}, stats.Summary{}, 0, err
	}
	defer sw.Close()

	covered := rs.CoveredFlows()
	var tuple flows.FiveTuple
	found := false
	for f := 0; f < 16; f++ {
		if covered.Contains(flows.ID(f)) {
			tuple = universe.Tuple(flows.ID(f))
			found = true
			break
		}
	}
	if !found {
		return stats.Summary{}, stats.Summary{}, 0, fmt.Errorf("experiment: policy covers no evaluation flow")
	}

	var hits, misses []float64
	for i := 0; i < samples; i++ {
		res, err := sw.Inject(tuple)
		if err != nil {
			return stats.Summary{}, stats.Summary{}, 0, err
		}
		ms := float64(res.Delay) / float64(time.Millisecond)
		if res.Hit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
		if res.Hit && res.RuleID >= 0 {
			// Expire the rule so the next injection misses again:
			// alternate hit/miss samples. Idle timeouts here are ≥ 100ms;
			// waiting is too slow, so delete via the table directly.
			sw.ExpireAll()
		}
	}
	return stats.Summarize(hits), stats.Summarize(misses), misclassified(hits, misses, 1.0), nil
}

// MeasureLatency combines both substrates into one report.
func MeasureLatency(simSamples, ofSamples int, seed int64, processing time.Duration) (*LatencyReport, error) {
	report, err := MeasureSimLatency(simSamples, seed)
	if err != nil {
		return nil, err
	}
	hit, miss, bad, err := MeasureOpenFlowLatency(ofSamples, seed, processing)
	if err != nil {
		return nil, err
	}
	report.OFHitMs, report.OFMissMs, report.OFMisclassified = hit, miss, bad
	return report, nil
}

// misclassified returns the fraction of observations a threshold
// classifier gets wrong (hits at or above, misses below).
func misclassified(hitsMs, missesMs []float64, thresholdMs float64) float64 {
	total := len(hitsMs) + len(missesMs)
	if total == 0 {
		return 0
	}
	bad := 0
	for _, v := range hitsMs {
		if v >= thresholdMs {
			bad++
		}
	}
	for _, v := range missesMs {
		if v < thresholdMs {
			bad++
		}
	}
	return float64(bad) / float64(total)
}
