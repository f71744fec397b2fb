package flowtable

import (
	"testing"

	"flowrecon/internal/flows"
	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
)

// TestTableTelemetryMatchesStats drives a table through a random workload
// and asserts that the telemetry counters agree exactly with the table's
// own Stats() ground truth, and that the trace stream carries one event
// per state change.
func TestTableTelemetryMatchesStats(t *testing.T) {
	rs := testRules(t)
	tbl, err := New(rs, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1 << 14)
	tbl.SetTelemetry(reg, "t0")

	rng := stats.NewRNG(7)
	now := 0.0
	for i := 0; i < 500; i++ {
		now += rng.Float64()
		f := flows.ID(rng.Intn(4)) // flows 0..2 covered, 3 uncovered
		if _, hit := tbl.Lookup(f, now); !hit {
			if j, ok := rs.HighestCovering(f); ok {
				tbl.Install(j, now)
			}
		}
	}
	// Let everything expire so expirations are observed too.
	tbl.Len(now + 1000)

	st := tbl.Stats()
	snap := reg.Snapshot()
	series := func(name string) int64 {
		return snap.Counters[telemetry.Series(name, "node", "t0")]
	}
	checks := []struct {
		name string
		want int64
	}{
		{"flowtable_lookups_total", st.Lookups},
		{"flowtable_lookup_hits_total", st.Hits},
		{"flowtable_lookup_misses_total", st.Misses},
		{"flowtable_installs_total", st.Installs},
		{"flowtable_evictions_total", st.Evictions},
		{"flowtable_expirations_total", st.Expirations},
	}
	for _, c := range checks {
		if got := series(c.name); got != c.want {
			t.Errorf("%s = %d, stats ground truth %d", c.name, got, c.want)
		}
	}
	if st.Lookups != st.Hits+st.Misses {
		t.Fatalf("stats self-inconsistent: %d != %d + %d", st.Lookups, st.Hits, st.Misses)
	}
	if st.Installs == 0 || st.Evictions == 0 || st.Expirations == 0 {
		t.Fatalf("workload failed to exercise install/evict/expire: %+v", st)
	}

	// Occupancy gauge must reflect the (now empty) table.
	if occ := snap.Gauges[telemetry.Series("flowtable_occupancy", "node", "t0")]; occ != int64(tbl.Len(now+1000)) {
		t.Errorf("occupancy gauge %d, table %d", occ, tbl.Len(now+1000))
	}

	// One trace event per install/evict/expire.
	kinds := map[string]int64{}
	for _, e := range reg.Tracer().Events() {
		kinds[e.Kind]++
	}
	if kinds["rule.install"] != st.Installs {
		t.Errorf("rule.install events %d, installs %d", kinds["rule.install"], st.Installs)
	}
	if kinds["rule.evict"] != st.Evictions {
		t.Errorf("rule.evict events %d, evictions %d", kinds["rule.evict"], st.Evictions)
	}
	if kinds["rule.expire"] != st.Expirations {
		t.Errorf("rule.expire events %d, expirations %d", kinds["rule.expire"], st.Expirations)
	}
}
