package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flowrecon/internal/experiment"
)

// TestSessionSpecTraceKinds: generated workload kinds pass Validate; file
// kinds are refused whatever their path, with an error that names none.
func TestSessionSpecTraceKinds(t *testing.T) {
	for _, kind := range []string{"poisson", "periodic", "bursty", "pareto", "lognormal", "diurnal", "flash"} {
		spec := testSpec(kind, 1, 2, 2)
		spec.Target.Trace = &experiment.TraceSourceSpec{Kind: kind}
		if err := spec.Validate(); err != nil {
			t.Errorf("generated kind %q refused: %v", kind, err)
		}
	}
	for _, kind := range []string{"pcap", "flowlog"} {
		for _, path := range []string{"/etc/passwd", "/no/such/file", "capture.pcap"} {
			spec := testSpec(kind, 1, 2, 2)
			spec.Target.Trace = &experiment.TraceSourceSpec{Kind: kind, Path: path}
			err := spec.Validate()
			if err == nil {
				t.Fatalf("file kind %q with path %q accepted", kind, path)
			}
			if strings.Contains(err.Error(), path) {
				t.Fatalf("refusal names the path: %v", err)
			}
		}
	}
}

// FuzzSessionSpec decodes arbitrary bytes as a session spec the way the
// HTTP handler does, then validates it. Neither step may panic, and any
// spec Validate accepts must name no file trace source and stay within
// the per-session trial budget.
func FuzzSessionSpec(f *testing.F) {
	seed, err := json.Marshal(testSpec("seed", 3, 2, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"target":{"trials":1,"probes":1,"trace":{"kind":"flowlog","path":"/etc/passwd"}}}`))
	f.Add([]byte(`{"target":{"trials":2000000,"probes":1}}`))
	f.Add([]byte(`{"target":{"trace":{"kind":"pareto","alpha":0.5}}}`))
	f.Add([]byte(`{"name":"x","detect":true}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SessionSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		if spec.Target.Trace.IsFile() {
			t.Fatalf("accepted a file trace source: %+v", spec.Target.Trace)
		}
		if spec.Target.Trials > maxBudget {
			t.Fatalf("accepted %d trials, cap %d", spec.Target.Trials, maxBudget)
		}
	})
}
