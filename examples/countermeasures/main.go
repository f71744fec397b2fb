// Countermeasures evaluates the §VII-B defenses on the simulated network:
//
//  1. adding delays to every flow's first packets (hides the timing gap),
//  2. proactive rule installation (no misses to observe), and
//  3. the undefended baseline.
//
// For each, the attacker replays the §III-A probe and we measure how well
// its 1 ms threshold distinguishes "target flow occurred" from "did not".
//
//	go run ./examples/countermeasures
package main

import (
	"fmt"
	"log"
	"math"

	"flowrecon/internal/controller"
	"flowrecon/internal/flows"
	"flowrecon/internal/netsim"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nhosts = 8
	base := flows.MakeIPv4(10, 0, 1, 0)

	defenses := []struct {
		name          string
		extraHitDelay float64
		opts          controller.Options
		note          string
		wantAcc       float64 // the accuracy the defense should leave the attacker
	}{
		{"no defense", 0, controller.Options{}, "side channel wide open", 1},
		{"adding delays (2 ms)", 2e-3, controller.Options{}, "per-packet latency cost on every flow", 0.5},
		{"proactive rules", 0, controller.Options{Proactive: true}, "needs table capacity for the full policy", 0.5},
	}

	fmt.Println("§VII-B countermeasures against the flow-reconnaissance probe")
	fmt.Printf("%-22s %14s %14s %10s\n", "defense", "P(detect|occur)", "P(FP|absent)", "accuracy")

	for _, d := range defenses {
		universe := flows.ClientServerUniverse(base, nhosts)
		var rl []rules.Rule
		for i := 0; i < nhosts; i++ {
			rl = append(rl, rules.Rule{
				Name: fmt.Sprintf("h%d", i), Cover: flows.SetOf(flows.ID(i)),
				Priority: i + 1, Timeout: 10,
			})
		}
		policy, err := rules.NewSet(rl)
		if err != nil {
			return err
		}
		ctrl := netsim.NewControllerModel(policy, d.opts)
		ctrl.ExtraHitDelay = d.extraHitDelay

		net, err := netsim.NewFleet(netsim.FleetConfig{
			Topo:     netsim.StanfordBackbone(),
			Capacity: 9,
			StepSec:  0.1,
			Ctrl:     ctrl,
			Universe: universe,
			Shards:   1,
			Seed:     5,
		})
		if err != nil {
			return err
		}
		setup, err := netsim.AttachEvaluationHosts(net, base, nhosts, "yoza_rtr", "boza_rtr")
		if err != nil {
			return err
		}

		const trials = 200
		tp, fp, occ := 0, 0, 0
		at := 0.0
		rng := stats.NewRNG(11)
		for i := 0; i < trials; i++ {
			occurred := rng.Bernoulli(0.5)
			if occurred {
				occ++
				if _, err := net.SendEcho(setup.SourceHosts[2], setup.Destination, at); err != nil {
					return err
				}
			}
			probe, err := net.SendEcho(setup.SourceHosts[2], setup.Destination, at+0.4)
			if err != nil {
				return err
			}
			at += 5 // let rules expire between trials
			net.RunUntil(at)
			detected := net.Echo(probe).RTT < 1e-3 // hit ⇒ the victim's rule was cached
			if occurred && detected {
				tp++
			}
			if !occurred && detected {
				fp++
			}
		}
		net.Close()
		det := float64(tp) / float64(occ)
		fpr := float64(fp) / float64(trials-occ)
		acc := (float64(tp) + float64(trials-occ-fp)) / float64(trials)
		fmt.Printf("%-22s %14.2f %14.2f %9.1f%%   %s\n", d.name, det, fpr, 100*acc, d.note)
		if math.Abs(acc-d.wantAcc) > 0.1 {
			return fmt.Errorf("%s: attacker accuracy %.1f%%, want ≈%.0f%%", d.name, 100*acc, 100*d.wantAcc)
		}
	}
	fmt.Println("\nan effective defense drives accuracy toward 50% (guessing)")
	return nil
}
