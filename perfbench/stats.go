package main

import (
	"math"
	"sort"
	"time"

	"flowrecon/internal/stats"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// ladder lists the percentiles a timing may be reported at, low to high.
var ladder = []float64{0.5, 0.9, 0.99, 0.999}

// beyond returns how many of n samples rank above the q-th percentile
// under the nearest-rank rule.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// tailLevel returns the highest ladder percentile with at least minBeyond
// of n samples beyond it; ok is false when not even the median has.
func tailLevel(n int) (q float64, ok bool) {
	for _, l := range ladder {
		if beyond(n, l) >= minBeyond {
			q, ok = l, true
		}
	}
	return q, ok
}

// percentile returns the nearest-rank q-th percentile of xs (NaN when xs
// is empty). xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(s) {
		r = len(s) - 1
	}
	return s[r]
}

// timing is a latency distribution reported the way the benchmark
// reports every timing: its median and its tail percentile, with the
// sample count.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tailQ"` // 0 when n is too small for any percentile
}

// summarize reports xs under the percentile rule; P50 and Tail stay 0
// when there are too few samples, and at reports them as NaN.
func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if q, ok := tailLevel(len(xs)); ok {
		t.P50 = percentile(xs, 0.5)
		t.Tail, t.TailQ = percentile(xs, q), q
	}
	return t
}

// at returns the q-th percentile when the sample count supports it under
// the rule, else NaN.
func (t timing) at(q float64) float64 {
	switch {
	case q == 0.5 && t.TailQ >= 0.5:
		return t.P50
	case t.TailQ >= q:
		return t.Tail
	}
	return math.NaN()
}

// median returns the middle value of xs (mean of the middle two for even
// lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads printed here match the ones computed from result files.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// openLoopSchedule returns n Poisson arrival offsets at rate per second,
// drawn from seed: the same seed always yields the same schedule.
func openLoopSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := stats.NewRNG(seed)
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.Exp(rate)
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// outcome is what one session attempt produced, as the client saw it.
type outcome int

const (
	outcomeOK        outcome = iota
	outcomeRejected          // non-200 status: 429 saturated, 503 draining, 400 bad spec
	outcomeErrorLine         // the stream carried an "error" line
	outcomeTruncated         // the stream ended without its "result" line
	outcomeTransport         // the request or the stream read failed
)

func (o outcome) String() string {
	return [...]string{"ok", "rejected", "error-line", "truncated", "transport"}[o]
}

// attempt is one session request's record in a load phase. Times are
// offsets from the phase start.
type attempt struct {
	Due, Sent, FirstProbe, Done time.Duration
	Outcome                     outcome
	Bytes                       int
}

// loadSummary condenses a load phase. A failed attempt counts as missing
// the latency limit.
type loadSummary struct {
	Attempted, Failed int
	ByOutcome         map[string]int
	Session           timing // due → result line, ms
	FirstProbe        timing // due → first probe line, ms
	Late              timing // due → request sent, ms
	WithinLimit       float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarizeLoad accounts a phase's attempts against a latency limit.
func summarizeLoad(atts []attempt, limit time.Duration) loadSummary {
	s := loadSummary{Attempted: len(atts), ByOutcome: map[string]int{}}
	var sess, first, late []float64
	within := 0
	for _, a := range atts {
		s.ByOutcome[a.Outcome.String()]++
		late = append(late, ms(a.Sent-a.Due))
		if a.Outcome != outcomeOK {
			s.Failed++
			continue
		}
		sess = append(sess, ms(a.Done-a.Due))
		first = append(first, ms(a.FirstProbe-a.Due))
		if a.Done-a.Due <= limit {
			within++
		}
	}
	s.Session, s.FirstProbe, s.Late = summarize(sess), summarize(first), summarize(late)
	if len(atts) > 0 {
		s.WithinLimit = float64(within) / float64(len(atts))
	}
	return s
}

// windows is how many consecutive slices of a load phase the steady
// medians are taken over: CPU taken by other tenants of a shared host for
// a few seconds moves one slice's figure, not the median of them.
const windows = 4

// windowedP50 splits atts, in due order, into consecutive slices and
// returns the median over slices of each slice's median latency in ms,
// from due to the result line, or to the first probe line with first.
// Failed attempts have no latency and are left out.
func windowedP50(atts []attempt, first bool) float64 {
	var meds []float64
	for w := 0; w < windows; w++ {
		var xs []float64
		for _, a := range atts[w*len(atts)/windows : (w+1)*len(atts)/windows] {
			if a.Outcome != outcomeOK {
				continue
			}
			end := a.Done
			if first {
				end = a.FirstProbe
			}
			xs = append(xs, ms(end-a.Due))
		}
		if len(xs) > 0 {
			meds = append(meds, percentile(xs, 0.5))
		}
	}
	return median(meds)
}

// windowedRate splits [0, elapsed] into equal slices and returns the
// median over slices of completions per second.
func windowedRate(done []time.Duration, elapsed time.Duration) float64 {
	counts := make([]float64, windows)
	width := elapsed / windows
	for _, d := range done {
		i := int(d / width)
		if i >= windows {
			i = windows - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}
