package main

import (
	"math"
	"testing"
	"time"

	"flowrecon/internal/telemetry"
)

func TestUnionLenMergesAndClips(t *testing.T) {
	ivs := [][2]float64{{1, 4}, {3, 6}, {8, 12}, {-5, 0.5}}
	// Clipped to [0, 10]: [0,0.5] + [1,6] + [8,10] = 0.5 + 5 + 2.
	if got := unionLen(ivs, 0, 10); math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("unionLen = %v, want 7.5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []telemetry.Span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 10},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{Trace: 1, ID: 3, Parent: 1, Name: "a", Start: 3, End: 6}, // overlaps its sibling
		{Trace: 1, ID: 4, Parent: 2, Name: "b", Start: 2, End: 3},
		{Trace: 2, ID: 5, Name: "root", Start: 20, End: 22},
	}
	self, total := selfTimes(spans)
	if total != 12 {
		t.Fatalf("traced end-to-end %v, want the roots' 10+2", total)
	}
	// root: 10 − |[1,6]| = 5, plus the second root's 2.
	// a: (3 − 1) + 3, b: 1.
	want := map[string]float64{"root": 7, "a": 5, "b": 1}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

// TestPlacedSidePassesSumToTracedTime checks the invariant the traced run
// prints: with side-pass spans laid under a live span, the self times of
// every span sum exactly to the traced end-to-end time, whether the side
// passes fit their parent or must be scaled down into it, and place
// reports how far they overran.
func TestPlacedSidePassesSumToTracedTime(t *testing.T) {
	tr := newTracer()
	at := func(s float64) time.Time { return tr.epoch.Add(time.Duration(s * float64(time.Second))) }
	fits := tr.newTrace()
	root := tr.start(fits, 0, "service.session", at(0))
	tr.end(root, at(10))
	excess := tr.place(fits, root, 0, 10, 10, []vnode{
		{name: "service.open", dur: 1},
		{name: "service.next_wait", dur: 6, kids: []vnode{
			{name: "experiment.trial", dur: 2, kids: []vnode{{name: "workload.trace_gen", dur: 1}}},
			{name: "experiment.trial", dur: 2},
		}},
	})
	if excess != 0 {
		t.Errorf("fitting side passes report excess %v", excess)
	}
	over := tr.newTrace()
	root2 := tr.start(over, 0, "service.session", at(20))
	tr.end(root2, at(22))
	// 4 s of kids in a 2 s span, and 3 s of grandchildren under a 1 s kid.
	excess = tr.place(over, root2, 20, 22, 2, []vnode{
		{name: "service.open", dur: 3},
		{name: "service.next_wait", dur: 1, kids: []vnode{{name: "experiment.trial", dur: 3}}},
	})
	if math.Abs(excess-4) > 1e-9 {
		t.Errorf("overfull side passes report excess %v, want 2+2", excess)
	}

	self, total := selfTimes(tr.rec.Spans())
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if math.Abs(total-12) > 1e-9 || math.Abs(sum-total) > 1e-9 {
		t.Fatalf("self times sum to %v, traced end-to-end %v; want both 12", sum, total)
	}
	// The fitting trace leaves 3 s to the session itself; the overfull one
	// is scaled to fill its 2 s exactly, leaving none.
	if math.Abs(self["service.session"]-3) > 1e-9 {
		t.Errorf("session self %v, want 3", self["service.session"])
	}
	if want := 1 + 2*3.0/4; math.Abs(self["service.open"]-want) > 1e-9 {
		t.Errorf("open self %v, want %v", self["service.open"], want)
	}
	if math.Abs(self["workload.trace_gen"]-1) > 1e-9 || math.Abs(self["experiment.trial"]-(3+0.5)) > 1e-9 {
		t.Errorf("trial self %v trace_gen self %v, want 3.5 and 1", self["experiment.trial"], self["workload.trace_gen"])
	}
	// 6 s less its 4 s of trials; none in the second trace, where its
	// overfull kid fills it.
	if math.Abs(self["service.next_wait"]-2) > 1e-9 {
		t.Errorf("next_wait self %v, want 2", self["service.next_wait"])
	}
}

// TestOverheadIgnoresSlowedSessions checks that one session a busy host
// slowed in the traced pass does not decide the overhead estimate.
func TestOverheadIgnoresSlowedSessions(t *testing.T) {
	l := &layers{pairedOverhead: []float64{1e-6, 2e-6, 0.5, 1e-6, -1e-6}}
	if got, want := l.overhead(), 5*1e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("overhead %v, want %v", got, want)
	}
	if (&layers{}).overhead() != 0 {
		t.Fatal("no sessions must give no overhead")
	}
}
