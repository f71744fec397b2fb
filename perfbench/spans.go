package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flowrecon/internal/telemetry"
)

// tracer records the traced run's spans in memory: wall-clock seconds
// since the run's epoch, one trace id per session. A nil *tracer records
// nothing, so the pass with spans off pays one nil check per span site.
type tracer struct {
	rec   *telemetry.SpanRecorder
	epoch time.Time
}

// maxSpans bounds the in-memory span store; a traced session run emits
// about 70 spans per session.
const maxSpans = 1 << 21

func newTracer() *tracer {
	rec := telemetry.NewSpanRecorder(maxSpans)
	rec.SetWallClock(nil)
	return &tracer{rec: rec, epoch: time.Now()}
}

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) float64 { return w.Sub(t.epoch).Seconds() }

func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.rec.NewTrace()
}

// start opens a live span at w; end closes it at w. With a nil tracer
// both are no-ops.
func (t *tracer) start(trace int64, parent telemetry.SpanID, name string, w time.Time) telemetry.SpanID {
	if t == nil {
		return 0
	}
	return t.rec.Start(trace, parent, name, layerOf(name), t.at(w))
}

func (t *tracer) end(id telemetry.SpanID, w time.Time) {
	if t != nil {
		t.rec.End(id, t.at(w))
	}
}

// vnode is a side-pass measurement: a layer's public function timed on
// the same inputs outside the call that contains it. Its duration is
// known, its position inside the enclosing span is not.
type vnode struct {
	name string
	dur  float64 // seconds
	kids []vnode
}

// place lays kids out back to back from the start of [from, to] and
// records them as children of parent. ref is the parent's own measured
// duration: to-from for a live span, the side-pass time for a placed one.
// Kids whose durations sum past ref are scaled down together to fit, and
// the excess is returned, summed over every level, so an attribution that
// overruns its span shows. Whatever the kids leave uncovered is the
// parent's self time.
func (t *tracer) place(trace int64, parent telemetry.SpanID, from, to, ref float64, kids []vnode) (excess float64) {
	if t == nil || len(kids) == 0 {
		return 0
	}
	sum := 0.0
	for _, k := range kids {
		sum += k.dur
	}
	if sum > ref {
		excess = sum - ref
	}
	scale := 1.0
	if m := math.Max(sum, ref); m > 0 {
		scale = (to - from) / m
	}
	at := from
	for _, k := range kids {
		end := at + k.dur*scale
		id := t.rec.Start(trace, parent, k.name, layerOf(k.name), at)
		t.rec.Annotate(id, -1, -1, "side-pass")
		t.rec.End(id, end)
		excess += t.place(trace, id, at, end, k.dur, k.kids)
		at = end
	}
	return excess
}

// layerOf names the module a span belongs to: the first component of its
// dotted name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// unionLen returns the total length of the union of intervals clipped to
// [lo, hi].
func unionLen(ivs [][2]float64, lo, hi float64) float64 {
	var clipped [][2]float64
	for _, iv := range ivs {
		a, b := math.Max(iv[0], lo), math.Min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, curA, curB := 0.0, math.Inf(-1), math.Inf(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = math.Max(curB, iv[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span name's summed self time — its duration
// minus the union of its children's intervals — and the traced
// end-to-end time, the summed duration of the root spans.
func selfTimes(spans []telemetry.Span) (self map[string]float64, total float64) {
	self = map[string]float64{}
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		ivs := make([][2]float64, 0, len(n.Children))
		for _, c := range n.Children {
			ivs = append(ivs, [2]float64{c.Span.Start, c.Span.End})
			walk(c)
		}
		self[n.Span.Name] += n.Span.Duration() - unionLen(ivs, n.Span.Start, n.Span.End)
	}
	for _, root := range telemetry.BuildSpanForest(spans) {
		total += root.Span.Duration()
		walk(root)
	}
	return self, total
}

// selfTable prints the per-layer self-time table and returns the summed
// self time, which must equal the traced end-to-end time. untraced is the
// same work run with spans off and paired the overhead estimated from
// per-session differences; scaled is the side-pass time that did not fit
// its parent span.
func selfTable(w io.Writer, spans []telemetry.Span, untraced, paired, scaled float64) (sum, total float64) {
	self, total := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
		sum += self[n]
	}
	sort.Slice(names, func(i, j int) bool {
		li, lj := layerOf(names[i]), layerOf(names[j])
		if li != lj {
			return li < lj
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "per-layer self time (%d spans; side-pass spans are scaled to fit their parent)\n", len(spans))
	fmt.Fprintf(w, "  %-12s %-34s %12s %8s\n", "layer", "span", "self_s", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %-34s %12.6f %7.2f%%\n", layerOf(n), n, self[n], 100*self[n]/total)
	}
	fmt.Fprintf(w, "  %-47s %12.6f\n", "sum of self times", sum)
	fmt.Fprintf(w, "  %-47s %12.6f\n", "traced end-to-end time", total)
	fmt.Fprintf(w, "  %-47s %12.6f\n", "same work untraced", untraced)
	fmt.Fprintf(w, "  %-47s %12.6f (%+.2f%%)\n", "traced minus untraced", total-untraced, 100*(total-untraced)/untraced)
	fmt.Fprintf(w, "  %-47s %12.6f (%+.2f%%)\n", "tracing overhead, median paired difference", paired, 100*paired/untraced)
	fmt.Fprintf(w, "  %-47s %12.6f\n", "side-pass time scaled away to fit its span", scaled)
	return sum, total
}

// writeSpans writes the traced run's spans as JSONL under dir.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.rec.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
