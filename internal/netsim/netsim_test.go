package netsim

import (
	"math"
	"testing"

	"flowrecon/internal/controller"
	"flowrecon/internal/flows"
	"flowrecon/internal/rules"
	"flowrecon/internal/stats"
)

func TestStanfordBackboneShape(t *testing.T) {
	topo := StanfordBackbone()
	if len(topo.Switches) != 16 {
		t.Fatalf("switches = %d, want 16 (§VI-A)", len(topo.Switches))
	}
	if len(topo.Links) != 1+2*14 {
		t.Fatalf("links = %d", len(topo.Links))
	}
}

// evalPolicy is the default two-rule test policy over four flows.
func evalPolicy(t testing.TB) *rules.Set {
	t.Helper()
	rs, err := rules.NewSet([]rules.Rule{
		{Name: "r0", Cover: flows.SetOf(0, 1), Priority: 2, Timeout: 10},
		{Name: "r1", Cover: flows.SetOf(2), Priority: 1, Timeout: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// evalFleet assembles the §VI-A environment on the Stanford-like
// backbone: four source hosts and the attacker on the reactive ingress
// switch yoza_rtr, the server on boza_rtr. cfg supplies the knobs a test
// varies (controller, capacity, seed, faults, detector, shards); a nil
// controller app selects evalPolicy, a zero capacity 6 and a zero step
// 0.1 s.
func evalFleet(t testing.TB, cfg FleetConfig) (*Fleet, EvaluationSetup) {
	t.Helper()
	base := flows.MakeIPv4(10, 0, 1, 0)
	cfg.Topo = StanfordBackbone()
	cfg.Universe = flows.ClientServerUniverse(base, 4)
	if cfg.Ctrl.App == nil {
		cfg.Ctrl.App = controller.New(evalPolicy(t), controller.Options{})
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 6
	}
	if cfg.StepSec == 0 {
		cfg.StepSec = 0.1
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	setup, err := AttachEvaluationHosts(f, base, 4, "yoza_rtr", "boza_rtr")
	if err != nil {
		t.Fatal(err)
	}
	return f, setup
}

// packetIns is the controller's consultation count.
func packetIns(f *Fleet) int64 { return f.cfg.Ctrl.App.Snapshot().PacketIns }

func TestNetworkPath(t *testing.T) {
	f, _ := evalFleet(t, FleetConfig{Seed: 3})
	r, err := f.route(f.index["yoza_rtr"], f.index["boza_rtr"])
	if err != nil {
		t.Fatal(err)
	}
	path := f.pathSw[f.routeOff[r] : f.routeOff[r]+f.routeLen[r]]
	if len(path) != 3 {
		t.Fatalf("path = %v (zone→core→zone expected)", path)
	}
	if f.names[path[0]] != "yoza_rtr" || f.names[path[1]] != "bbra_rtr" || f.names[path[2]] != "boza_rtr" {
		t.Fatalf("path = %v, want yoza→bbra→boza (lowest-ID core first)", path)
	}
	self, err := f.route(f.index["yoza_rtr"], f.index["yoza_rtr"])
	if err != nil || f.routeLen[self] != 1 {
		t.Fatalf("self route len = %d, %v", f.routeLen[self], err)
	}
}

func TestNetworkValidation(t *testing.T) {
	// Unknown-switch hosts and reactive switches, duplicate hosts and
	// unknown echo sources are TestFleetValidation's; these are the
	// remaining construction and lookup errors.
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	if _, err := f.SendEcho("h0", "nope", 0); err == nil {
		t.Fatal("echo to unknown host accepted")
	}
	if _, err := NewFleetProber(f).Probe("h0", "nope", 0); err == nil {
		t.Fatal("probe to unknown host accepted")
	}
	// The first echo compiles the fabric: no more hosts or reactive
	// switches after that.
	if _, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.AddHost("late", 9, "coza_rtr"); err == nil {
		t.Fatal("host added to a running fleet")
	}
	if err := f.SetReactive("coza_rtr"); err == nil {
		t.Fatal("reactive switch added to a running fleet")
	}

	topo := StanfordBackbone()
	topo.Switches = append(topo.Switches, "bbra_rtr")
	ctrl := NewControllerModel(evalPolicy(t), controller.Options{})
	universe := flows.ClientServerUniverse(flows.MakeIPv4(10, 0, 1, 0), 4)
	if _, err := NewFleet(FleetConfig{Topo: topo, Ctrl: ctrl, Universe: universe}); err == nil {
		t.Fatal("duplicate switch accepted")
	}
	topo = StanfordBackbone()
	topo.Links = append(topo.Links, Link{A: "bbra_rtr", B: "nope"})
	if _, err := NewFleet(FleetConfig{Topo: topo, Ctrl: ctrl, Universe: universe}); err == nil {
		t.Fatal("link to unknown switch accepted")
	}
}

func TestEchoMissTheHitRTTGap(t *testing.T) {
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	first, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	a, b := f.Echo(first), f.Echo(second)
	if !a.Delivered || !b.Delivered {
		t.Fatal("echo not delivered")
	}
	if !a.Missed {
		t.Fatal("first echo should miss everywhere")
	}
	if b.Missed {
		t.Fatal("second echo should ride the installed rules")
	}
	if a.RTT < 1e-3 {
		t.Fatalf("miss RTT %v suspiciously small", a.RTT)
	}
	if b.RTT > 1e-3 {
		t.Fatalf("hit RTT %v too large (threshold 1ms, §VI-A)", b.RTT)
	}
	if packetIns(f) == 0 {
		t.Fatal("no controller consultations recorded")
	}
}

func TestEchoLatencyCalibration(t *testing.T) {
	// RTT distributions through the standard path must land near the
	// paper's measurements: hit ≈ 0.087 ms, miss ≈ 4.07 ms, separable at
	// 1 ms.
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	var hitRTT, missRTT []float64
	at := 0.0
	for i := 0; i < 400; i++ {
		miss, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, at)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, at+0.2)
		if err != nil {
			t.Fatal(err)
		}
		at += 10 // beyond the 1s max idle timeout: rules expire between rounds
		f.RunUntil(at)
		m, h := f.Echo(miss), f.Echo(hit)
		if !m.Missed || h.Missed {
			t.Fatalf("round %d: miss=%v hit=%v", i, m.Missed, h.Missed)
		}
		missRTT = append(missRTT, m.RTT*1e3)
		hitRTT = append(hitRTT, h.RTT*1e3)
	}
	h := stats.Summarize(hitRTT)
	m := stats.Summarize(missRTT)
	if math.Abs(h.Mean-0.087) > 0.05 {
		t.Errorf("hit RTT mean = %.4f ms, want ≈ 0.087", h.Mean)
	}
	if math.Abs(m.Mean-4.07) > 0.6 {
		t.Errorf("miss RTT mean = %.3f ms, want ≈ 4.07", m.Mean)
	}
	// The 1 ms threshold must separate the distributions essentially
	// perfectly, as in the paper.
	for _, v := range hitRTT {
		if v >= 1 {
			t.Fatalf("hit RTT %v ms crosses the 1 ms threshold", v)
		}
	}
	misclass := 0
	for _, v := range missRTT {
		if v < 1 {
			misclass++
		}
	}
	if frac := float64(misclass) / float64(len(missRTT)); frac > 0.05 {
		t.Errorf("%.1f%% of misses below 1 ms threshold", 100*frac)
	}
}

func TestCountermeasureAddingDelays(t *testing.T) {
	// §VII-B defense 1: delaying every packet hides the gap.
	f, setup := evalFleet(t, FleetConfig{Seed: 3, Ctrl: ControllerModel{ExtraHitDelay: 2e-3}})
	miss, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	// Both now exceed the 1 ms threshold: the attacker's classifier fails.
	if h, m := f.Echo(hit), f.Echo(miss); h.RTT < 1e-3 || m.RTT < 1e-3 || h.Missed {
		t.Fatalf("delays not applied: hit %+v miss %+v", h, m)
	}
}

func TestCountermeasureProactive(t *testing.T) {
	// §VII-B defense 2: proactive installation removes misses entirely.
	ctrl := NewControllerModel(evalPolicy(t), controller.Options{Proactive: true})
	f, setup := evalFleet(t, FleetConfig{Seed: 3, Ctrl: ctrl})
	first, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	if st := f.Echo(first); st.Missed || st.RTT > 1e-3 {
		t.Fatalf("proactive network still misses: %+v", st)
	}
	if packetIns(f) != 0 {
		t.Fatal("proactive network consulted the controller")
	}
}

func TestPerSwitchTablesIndependent(t *testing.T) {
	// A rule installed at the ingress switch must not make a different
	// ingress switch hit.
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	if err := f.AddHost("far", flows.MakeIPv4(10, 0, 1, 0), "coza_rtr"); err != nil {
		t.Fatal(err)
	}
	if err := f.SetReactive("coza_rtr"); err != nil {
		t.Fatal(err)
	}
	e1, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	if !f.Echo(e1).Missed {
		t.Fatal("first echo should miss")
	}
	// Same flow identifier from a different ingress switch still misses
	// there (tables are per switch).
	e2, err := f.SendEcho("far", setup.Destination, f.Now()+0.05)
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	if !f.Echo(e2).Missed {
		t.Fatal("fresh ingress switch should miss")
	}
	if f.Table("coza_rtr").Stats().Installs != 1 || f.Table("yoza_rtr").Stats().Installs != 1 {
		t.Fatalf("installs: coza %+v yoza %+v", f.Table("coza_rtr").Stats(), f.Table("yoza_rtr").Stats())
	}
}

// TestSimOrdering: the simulator's event order. A fleet shard's heap pops
// by (time, packet ID), the strict total order that makes heap contents
// insertion-order-free.
func TestSimOrdering(t *testing.T) {
	var sh fleetShard
	for _, m := range []fleetMsg{{at: 2, pkt: 0}, {at: 1, pkt: 5}, {at: 1, pkt: 3}, {at: 0.5, pkt: 9}, {at: 2, pkt: 1}} {
		sh.push(m)
	}
	want := []fleetMsg{{at: 0.5, pkt: 9}, {at: 1, pkt: 3}, {at: 1, pkt: 5}, {at: 2, pkt: 0}, {at: 2, pkt: 1}}
	for i, w := range want {
		if got := sh.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestSimRunUntil: RunUntil processes events up to t, leaves later ones
// queued, and advances the frontier to t.
func TestSimRunUntil(t *testing.T) {
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	early, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 1)
	if err != nil {
		t.Fatal(err)
	}
	late, err := f.SendEcho(setup.SourceHosts[1], setup.Destination, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.RunUntil(2); n == 0 || !f.Echo(early).Delivered || f.Echo(late).Delivered {
		t.Fatalf("RunUntil(2): %d events, early %+v late %+v", n, f.Echo(early), f.Echo(late))
	}
	if f.Now() != 2 || f.Pending() != 1 {
		t.Fatalf("now=%v pending=%d, want 2 and the late echo's ingress event", f.Now(), f.Pending())
	}
	f.Run()
	if !f.Echo(late).Delivered || f.Pending() != 0 {
		t.Fatal("remaining echo lost")
	}
}

// TestSimPastSchedulingClamps: an echo sent before the frontier runs at
// the frontier; the clock never rewinds.
func TestSimPastSchedulingClamps(t *testing.T) {
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	f.RunUntil(5)
	id, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	if st := f.Echo(id); st.SentAt != 5 || !st.Delivered || f.Now() < 5 {
		t.Fatalf("past echo: %+v, now %v", st, f.Now())
	}
}

// TestSimNestedScheduling: processing an event schedules the packet's
// next one — each forward hop the following hop, the last hop the reply
// — and one Run drains the whole chain, leaving the clock at delivery.
func TestSimNestedScheduling(t *testing.T) {
	f, setup := evalFleet(t, FleetConfig{Seed: 3})
	id, err := f.SendEcho(setup.SourceHosts[0], setup.Destination, 1)
	if err != nil {
		t.Fatal(err)
	}
	// yoza → bbra → boza: three forward hops plus the reply delivery.
	if n := f.Run(); n != 4 {
		t.Fatalf("events = %d, want 4", n)
	}
	st := f.Echo(id)
	if !st.Delivered || math.Abs(f.Now()-(st.SentAt+st.RTT)) > 1e-12 || f.Pending() != 0 {
		t.Fatalf("echo %+v, now %v, pending %d", st, f.Now(), f.Pending())
	}
}
