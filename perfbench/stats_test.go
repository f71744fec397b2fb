package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	}
	for _, c := range cases {
		q, ok := tailLevel(c.n)
		if ok != c.want || q != c.q {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.want)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, q), q*100)
		}
	}
}

func TestSummarizeReportsCountAndLevel(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.Tail != 990 || s.TailQ != 0.99 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", s)
	}
	if s.at(0.99) != 990 || !math.IsNaN(s.at(0.999)) {
		t.Fatalf("at(0.99)=%v at(0.999)=%v; want 990 and NaN", s.at(0.99), s.at(0.999))
	}
	if small := summarize(xs[:999]); !math.IsNaN(small.at(0.99)) || small.TailQ != 0.9 {
		t.Fatalf("999 samples must not report a p99: %+v", small)
	}
	if tiny := summarize(xs[:5]); !math.IsNaN(tiny.at(0.5)) {
		t.Fatalf("5 samples must not report a median under the rule: %+v", tiny)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestOpenLoopScheduleIsSeededPoisson(t *testing.T) {
	a, b := openLoopSchedule(7, 100, 20000), openLoopSchedule(7, 100, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a[:100], openLoopSchedule(8, 100, 100)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
	// 20000 exponential gaps: the mean is within 3% of 1/rate with
	// overwhelming probability (its standard error is 0.7%).
	mean := a[len(a)-1].Seconds() / float64(len(a))
	if math.Abs(mean-0.01)/0.01 > 0.03 {
		t.Fatalf("mean gap %v s, want 0.01 s", mean)
	}
}

func TestLatencyCountsFromDueAndFailuresMissTheLimit(t *testing.T) {
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	var atts []attempt
	for i := 0; i < 20; i++ {
		// Due at i*10 ms, sent 3 ms late, first probe 1 ms and result 5 ms
		// after sending: 8 ms from due, of which 3 ms were the client's.
		due := msd(float64(10 * i))
		atts = append(atts, attempt{Due: due, Sent: due + msd(3), FirstProbe: due + msd(4), Done: due + msd(8)})
	}
	atts = append(atts,
		attempt{Due: msd(500), Sent: msd(500), Outcome: outcomeRejected},
		attempt{Due: msd(510), Sent: msd(530), FirstProbe: msd(531), Done: msd(560)}, // 50 ms from due
	)
	s := summarizeLoad(atts, msd(10))
	if s.Attempted != 22 || s.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 22 and 1", s.Attempted, s.Failed)
	}
	if s.Session.N != 21 || s.Session.P50 != 8 || s.FirstProbe.P50 != 4 {
		t.Fatalf("session %+v first probe %+v: latency must count from due", s.Session, s.FirstProbe)
	}
	if s.Late.N != 22 || s.Late.P50 != 3 {
		t.Fatalf("lateness %+v, want 22 samples with median 3 ms", s.Late)
	}
	if want := 20.0 / 22; s.WithinLimit != want {
		t.Fatalf("within limit %v, want %v: the rejection and the 50 ms session both miss", s.WithinLimit, want)
	}
}

// TestRunSessionClassifiesFailures drives the real client against stub
// servers: every way a session can fail is one failure of the attempt.
func TestRunSessionClassifiesFailures(t *testing.T) {
	good := `{"type":"accepted","trials":1,"probes":1,"attackers":["a","b"],"horizonSec":1}
{"type":"probe","trial":0,"attacker":"a","i":0,"flow":1,"outcome":"hit"}
{"type":"verdict","trial":0,"attacker":"a","verdict":"present","truth":"present","correct":true}
{"type":"verdict","trial":0,"attacker":"b","verdict":"absent","truth":"present","correct":false}
`
	cases := []struct {
		name   string
		status int
		body   string
		want   outcome
		bad    bool
	}{
		{"ok", 200, good + `{"type":"result","trials":1,"accuracy":{"a":1,"b":0}}` + "\n", outcomeOK, false},
		{"wrong accuracy", 200, good + `{"type":"result","trials":1,"accuracy":{"a":1,"b":1}}` + "\n", outcomeOK, true},
		{"saturated", http.StatusTooManyRequests, "saturated\n", outcomeRejected, false},
		{"draining", http.StatusServiceUnavailable, "draining\n", outcomeRejected, false},
		{"error line", 200, good + `{"type":"error","error":"boom"}` + "\n", outcomeErrorLine, false},
		{"truncated", 200, good, outcomeTruncated, false},
	}
	var atts []attempt
	for _, c := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.status)
			fmt.Fprint(w, c.body)
		}))
		r := runSession(newClient(), srv.URL, []byte("{}"), true, time.Now())
		srv.Close()
		if r.Outcome != c.want || (r.invalid != "") != c.bad {
			t.Errorf("%s: outcome %v invalid %q; want %v, invalid %v", c.name, r.Outcome, r.invalid, c.want, c.bad)
		}
		atts = append(atts, r.attempt)
	}
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	r := runSession(newClient(), srv.URL, []byte("{}"), false, time.Now())
	if r.Outcome != outcomeTransport {
		t.Errorf("closed server: outcome %v, want transport", r.Outcome)
	}
	atts = append(atts, r.attempt)
	s := summarizeLoad(atts, time.Hour)
	if s.Attempted != 7 || s.Failed != 5 {
		t.Fatalf("attempted %d failed %d, want 7 and 5 (failed_frac 5/7)", s.Attempted, s.Failed)
	}
}

func TestWindowedMediansIgnoreOneSlowSlice(t *testing.T) {
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	var atts []attempt
	for i := 0; i < 400; i++ {
		lat := 10.0
		if i < 100 { // the first slice ran while the host was busy
			lat = 50
		}
		due := msd(float64(i))
		atts = append(atts, attempt{Due: due, Sent: due, FirstProbe: due + msd(lat/2), Done: due + msd(lat)})
	}
	if got := windowedP50(atts, false); got != 10 {
		t.Fatalf("windowed session p50 %v, want 10", got)
	}
	if got := windowedP50(atts, true); got != 5 {
		t.Fatalf("windowed first-probe p50 %v, want 5", got)
	}
	var done []time.Duration
	for i := 0; i < 75; i++ {
		done = append(done, msd(float64(i)*40)) // 25/s over [0, 3 s)
	}
	for i := 0; i < 10; i++ {
		done = append(done, msd(3000+float64(i)*100)) // 10/s over [3 s, 4 s)
	}
	// Four 1 s slices: 25, 25, 25 and 10 per second.
	if got := windowedRate(done, 4*time.Second); math.Abs(got-25) > 1e-9 {
		t.Fatalf("windowed rate %v, want 25", got)
	}
}
