package netsim

import (
	"fmt"

	"flowrecon/internal/flows"
)

// Link is one bidirectional switch↔switch link. DelaySec is the one-way
// propagation delay; 0 means "use the latency model's default"
// (LatencyModel.SwitchLink), which keeps the paper's backbone — whose
// links carry no per-link annotation — byte-identical to earlier
// revisions.
type Link struct {
	A, B     string
	DelaySec float64
}

// Topology describes a switch fabric.
type Topology struct {
	Switches []string
	Links    []Link
	// Edges names the edge (host-facing) switches of generated fabrics,
	// in deterministic order. Empty for hand-built topologies like the
	// Stanford backbone, where every switch can face hosts.
	Edges []string
}

// StanfordBackbone returns a 16-switch topology in the image of the
// Stanford backbone used by the paper's evaluation [13]: two core routers
// (bbra, bbrb) interconnected, with fourteen zone routers dual-homed to
// both cores. The original Cisco configurations are not available offline;
// see DESIGN.md for why this substitution does not affect the attack.
func StanfordBackbone() Topology {
	zones := []string{
		"boza_rtr", "bozb_rtr", "coza_rtr", "cozb_rtr",
		"goza_rtr", "gozb_rtr", "poza_rtr", "pozb_rtr",
		"roza_rtr", "rozb_rtr", "soza_rtr", "sozb_rtr",
		"yoza_rtr", "yozb_rtr",
	}
	topo := Topology{Switches: []string{"bbra_rtr", "bbrb_rtr"}}
	topo.Switches = append(topo.Switches, zones...)
	topo.Links = append(topo.Links, Link{A: "bbra_rtr", B: "bbrb_rtr"})
	for _, z := range zones {
		topo.Links = append(topo.Links, Link{A: z, B: "bbra_rtr"}, Link{A: z, B: "bbrb_rtr"})
	}
	return topo
}

// Per-tier link delays of the generated datacenter fabrics (seconds,
// one way). Edge↔aggregation links are short intra-pod runs; the
// aggregation↔core and leaf↔spine tiers cross the datacenter. The core
// tier being strictly slower than the edge tier is what gives the
// sharded engine its lookahead: pod-contiguous partitions only cross
// shards over ≥ FatTreeEdgeAggDelay links.
const (
	FatTreeEdgeAggDelay = 10e-6
	FatTreeAggCoreDelay = 25e-6
	LeafSpineLinkDelay  = 20e-6
)

// FatTree returns the standard k-ary fat-tree (Al-Fares et al.): k pods
// of k/2 edge + k/2 aggregation switches, plus (k/2)² cores, for
// k² + k²/4 switches total — k=30 yields the 1125-switch "1k" fabric,
// k=64 the 5120-switch one. k must be even and ≥ 2.
//
// Switches are emitted pod-major (pod 0's edges, pod 0's aggs, pod 1's
// edges, ...) with the cores last, so the contiguous Partition below
// keeps pods intact and cross-shard traffic rides the slower
// aggregation↔core tier.
func FatTree(k int) (Topology, error) {
	if k < 2 || k%2 != 0 {
		return Topology{}, fmt.Errorf("netsim: fat-tree arity %d must be even and ≥ 2", k)
	}
	half := k / 2
	var topo Topology
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			name := fmt.Sprintf("p%de%d", p, e)
			topo.Switches = append(topo.Switches, name)
			topo.Edges = append(topo.Edges, name)
		}
		for a := 0; a < half; a++ {
			topo.Switches = append(topo.Switches, fmt.Sprintf("p%da%d", p, a))
		}
	}
	for c := 0; c < half*half; c++ {
		topo.Switches = append(topo.Switches, fmt.Sprintf("core%d", c))
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				topo.Links = append(topo.Links, Link{
					A:        fmt.Sprintf("p%de%d", p, e),
					B:        fmt.Sprintf("p%da%d", p, a),
					DelaySec: FatTreeEdgeAggDelay,
				})
			}
		}
		// Aggregation switch a of every pod uplinks to cores
		// [a·k/2, (a+1)·k/2).
		for a := 0; a < half; a++ {
			for i := 0; i < half; i++ {
				topo.Links = append(topo.Links, Link{
					A:        fmt.Sprintf("p%da%d", p, a),
					B:        fmt.Sprintf("core%d", a*half+i),
					DelaySec: FatTreeAggCoreDelay,
				})
			}
		}
	}
	return topo, nil
}

// FatTreeArity returns the smallest even k whose fat-tree reaches at
// least the requested switch count (k² + k²/4 switches).
func FatTreeArity(switches int) int {
	for k := 2; ; k += 2 {
		if k*k+(k/2)*(k/2) >= switches {
			return k
		}
	}
}

// LeafSpine returns a two-tier Clos fabric: every leaf connects to every
// spine. Leaves are the edge tier.
func LeafSpine(leaves, spines int) (Topology, error) {
	if leaves < 1 || spines < 1 {
		return Topology{}, fmt.Errorf("netsim: leaf-spine needs ≥1 leaf and ≥1 spine (got %d, %d)", leaves, spines)
	}
	var topo Topology
	for l := 0; l < leaves; l++ {
		name := fmt.Sprintf("leaf%d", l)
		topo.Switches = append(topo.Switches, name)
		topo.Edges = append(topo.Edges, name)
	}
	for s := 0; s < spines; s++ {
		topo.Switches = append(topo.Switches, fmt.Sprintf("spine%d", s))
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			topo.Links = append(topo.Links, Link{
				A:        fmt.Sprintf("leaf%d", l),
				B:        fmt.Sprintf("spine%d", s),
				DelaySec: LeafSpineLinkDelay,
			})
		}
	}
	return topo, nil
}

// Partition assigns every switch (by index into Switches) to one of
// nshards contiguous blocks. Generators emit switches pod-major, so
// contiguous blocks track pod boundaries and most intra-pod traffic
// stays shard-local. The mapping is a pure function of (len(Switches),
// nshards) — the first requirement for shard-count-invariant replay.
func (t Topology) Partition(nshards int) []int {
	if nshards < 1 {
		nshards = 1
	}
	if nshards > len(t.Switches) {
		nshards = len(t.Switches)
	}
	owner := make([]int, len(t.Switches))
	for i := range owner {
		owner[i] = i * nshards / len(t.Switches)
	}
	return owner
}

// EvaluationSetup reproduces the paper's §VI-A experiment layout on a
// network: nhosts source hosts (10.0.1.0 …) plus an attacker host attached
// to one ingress switch, and the common destination host (10.0.1.nhosts)
// attached to another.
type EvaluationSetup struct {
	SourceHosts []string
	Attacker    string
	Destination string
	Ingress     string
	Egress      string
}

// AttachEvaluationHosts wires the §VI-A hosts onto two switches of the
// fleet's topology. Call it before the first echo: a running fleet takes
// no new hosts.
func AttachEvaluationHosts(f *Fleet, base flows.IPv4, nhosts int, ingress, egress string) (EvaluationSetup, error) {
	setup := EvaluationSetup{Ingress: ingress, Egress: egress}
	// Only the shared ingress switch runs the reactive policy; the rest
	// of the fabric forwards on pre-installed defaults (§VI-A).
	if err := f.SetReactive(ingress); err != nil {
		return setup, err
	}
	for i := 0; i < nhosts; i++ {
		name := fmt.Sprintf("h%d", i)
		if err := f.AddHost(name, base+flows.IPv4(i), ingress); err != nil {
			return setup, err
		}
		setup.SourceHosts = append(setup.SourceHosts, name)
	}
	setup.Attacker = "attacker"
	// The attacker is "co-located with the source hosts" (§VI-A): same
	// ingress switch; probes are forged to carry a source host's address,
	// so the attacker host needs no address of its own.
	if err := f.AddHost(setup.Attacker, base+flows.IPv4(nhosts+1), ingress); err != nil {
		return setup, err
	}
	setup.Destination = "server"
	if err := f.AddHost(setup.Destination, base+flows.IPv4(nhosts), egress); err != nil {
		return setup, err
	}
	return setup, nil
}
