// Webvisit reproduces the paper's Figure 1 / §III-A example end to end on
// the simulated network: the attacker wants to know whether host A
// recently visited server B. It sends two probes — one with its own
// source address (guaranteed miss, calibrating t_fetch + t_setup) and one
// forged with A's address — and compares the response times.
//
//	go run ./examples/webvisit
package main

import (
	"fmt"
	"log"

	"flowrecon/internal/controller"
	"flowrecon/internal/flows"
	"flowrecon/internal/netsim"
	"flowrecon/internal/rules"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nhosts = 16
	base := flows.MakeIPv4(10, 0, 1, 0)
	universe := flows.ClientServerUniverse(base, nhosts)

	// Microflow policy: one rule per source host (the simple case of
	// §III-B1, where a hit identifies the flow exactly). 10-step idle
	// timeout at Δ=0.1 s → rules live 1 s without traffic.
	var rs []rules.Rule
	for i := 0; i < nhosts; i++ {
		rs = append(rs, rules.Rule{
			Name:     fmt.Sprintf("host%d", i),
			Cover:    flows.SetOf(flows.ID(i)),
			Priority: i + 1,
			Timeout:  10,
		})
	}
	policy, err := rules.NewSet(rs)
	if err != nil {
		return err
	}

	net, err := netsim.NewFleet(netsim.FleetConfig{
		Topo:     netsim.StanfordBackbone(),
		Capacity: 9,
		StepSec:  0.1,
		Ctrl:     netsim.NewControllerModel(policy, controller.Options{}),
		Universe: universe,
		Shards:   1,
		Seed:     42,
	})
	if err != nil {
		return err
	}
	defer net.Close()
	setup, err := netsim.AttachEvaluationHosts(net, base, nhosts, "yoza_rtr", "boza_rtr")
	if err != nil {
		return err
	}
	hostA := setup.SourceHosts[3] // "host A"
	server := setup.Destination   // "server B"

	for _, scenario := range []struct {
		name    string
		aVisits bool
	}{
		{"host A visited server B 0.4s ago", true},
		{"host A has not talked to server B", false},
	} {
		start := net.Now()
		if scenario.aVisits {
			if _, err := net.SendEcho(hostA, server, start); err != nil {
				return err
			}
		}
		// The attacker probes 0.4 s later: first its own flow f1
		// (calibration: always a miss), then the forged flow f2 with
		// A's source address.
		probeAt := start + 0.4
		calib, err := net.SendEcho(setup.SourceHosts[9], server, probeAt)
		if err != nil {
			return err
		}
		forged, err := net.SendEcho(hostA, server, probeAt+0.01)
		if err != nil {
			return err
		}
		net.RunUntil(probeAt + 3) // run past the 1 s idle timeouts
		calibMs, forgedMs := net.Echo(calib).RTT*1e3, net.Echo(forged).RTT*1e3

		fmt.Printf("%s:\n", scenario.name)
		fmt.Printf("  f1 (own address):     %.3f ms   → t_fetch + t_setup baseline\n", calibMs)
		fmt.Printf("  f2 (forged as A):     %.3f ms\n", forgedMs)
		verdict := forgedMs < 1.0 // the paper's 1 ms threshold
		fmt.Printf("  inference: host A %s server B recently (threshold 1 ms)\n\n",
			map[bool]string{true: "VISITED", false: "did not visit"}[verdict])
		if verdict != scenario.aVisits {
			return fmt.Errorf("misclassified scenario %q", scenario.name)
		}
	}
	fmt.Println("both scenarios classified correctly via the timing side channel")
	return nil
}
