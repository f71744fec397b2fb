// Recon demonstrates how an attacker acquires the knowledge the paper's
// threat model assumes (§III-C) using nothing but the timing channel
// itself: the switch's flow-table capacity (via Leng et al.'s overflow
// inference, the paper's ref [14]) and rule idle-timeout durations (by
// spacing probe pairs). Both run against the simulated network.
//
//	go run ./examples/recon
package main

import (
	"fmt"
	"log"

	"flowrecon/internal/controller"
	"flowrecon/internal/flows"
	"flowrecon/internal/netsim"
	"flowrecon/internal/recon"
	"flowrecon/internal/rules"
)

// netProber adapts the simulator's prober to the recon interface: flow
// f is probed by forging source host f's address.
type netProber struct {
	p     *netsim.FleetProber
	setup netsim.EvaluationSetup
}

func (np netProber) Probe(f flows.ID, now float64) (bool, error) {
	res, err := np.p.Probe(np.setup.SourceHosts[f], np.setup.Destination, now)
	if err != nil {
		return false, err
	}
	return res.Hit, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		nhosts   = 60
		capacity = 6 // what the attacker wants to discover
		ttlSteps = 10
		stepSec  = 0.1 // → true idle TTL = 1.0 s
	)
	base := flows.MakeIPv4(10, 0, 1, 0)
	universe := flows.ClientServerUniverse(base, nhosts)
	rl := make([]rules.Rule, nhosts)
	for i := range rl {
		rl[i] = rules.Rule{
			Name:     fmt.Sprintf("h%d", i),
			Cover:    flows.SetOf(flows.ID(i)),
			Priority: i + 1,
			Timeout:  ttlSteps,
		}
	}
	policy, err := rules.NewSet(rl)
	if err != nil {
		return err
	}

	net, err := netsim.NewFleet(netsim.FleetConfig{
		Topo:     netsim.StanfordBackbone(),
		Capacity: capacity,
		StepSec:  stepSec,
		Ctrl:     netsim.NewControllerModel(policy, controller.Options{}),
		Universe: universe,
		Shards:   1,
		Seed:     7,
	})
	if err != nil {
		return err
	}
	defer net.Close()
	setup, err := netsim.AttachEvaluationHosts(net, base, nhosts, "yoza_rtr", "boza_rtr")
	if err != nil {
		return err
	}
	prober := netProber{p: netsim.NewFleetProber(net), setup: setup}

	fmt.Println("step 1: infer the flow-table capacity (ref [14] of the paper)")
	candidates := make([]flows.ID, nhosts)
	for i := range candidates {
		candidates[i] = flows.ID(i)
	}
	inferredCap, err := recon.InferCapacity(prober, candidates, 9, net.Now(), 0.02)
	if err != nil {
		return err
	}
	fmt.Printf("  inferred capacity: %d (true: %d)\n\n", inferredCap, capacity)
	if inferredCap != capacity {
		return fmt.Errorf("capacity inference missed: got %d, true %d", inferredCap, capacity)
	}

	fmt.Println("step 2: bracket a rule's idle timeout by spacing probe pairs")
	grid := []float64{0.2, 0.5, 0.8, 0.9, 1.1, 1.5, 2.0}
	lo, hi, err := recon.InferIdleTimeout(prober, 0, grid, net.Now()+5)
	if err != nil {
		return err
	}
	ttl := float64(ttlSteps) * stepSec
	fmt.Printf("  TTL ∈ (%.1f s, %.1f s]  (true: %.1f s)\n\n", lo, hi, ttl)
	if ttl <= lo || ttl > hi {
		return fmt.Errorf("idle-timeout bracket (%.1f, %.1f] misses the true %.1f s", lo, hi, ttl)
	}

	fmt.Println("with capacity and TTLs recovered, the attacker can parameterize")
	fmt.Println("the Markov model of the switch (§IV) and run the flow-reconnaissance")
	fmt.Println("attack — see examples/quickstart and cmd/flowrecon.")
	return nil
}
