package trialrec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowrecon/internal/core"
	"flowrecon/internal/flows"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/workload"
)

func sampleRecording(t *testing.T, seed int64, flipOutcome bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, Header{
		Spec:      json.RawMessage(`{"trials":2}`),
		Seed:      seed,
		Trials:    2,
		Attackers: []string{"naive", "model(m=1)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		rec.BeginTrial(trial, trial == 0, []workload.Arrival{{Time: 0.5, Flow: 1}, {Time: 1.25, Flow: 0}})
		rec.Attacker(AttackerTrial{Name: "naive", Probes: []flows.ID{0}, Outcomes: []bool{true}, Verdict: true})
		out := trial == 0
		if flipOutcome && trial == 1 {
			out = !out
		}
		rec.Attacker(AttackerTrial{
			Name: "model(m=1)", Probes: []flows.ID{1}, Outcomes: []bool{out}, Verdict: out,
			Belief: []core.BeliefStep{{Index: 0, Probe: 1, Hit: out, Prior: 0.5, Posterior: 0.9}},
		})
		rec.Spans([]telemetry.Span{{Trace: 1, ID: 1, Name: "trial", Start: 0, End: 15}})
		if err := rec.EndTrial(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := sampleRecording(t, 7, false)
	if lines := bytes.Count(raw, []byte{'\n'}); lines != 3 {
		t.Fatalf("want 3 JSONL lines (header + 2 trials), got %d", lines)
	}
	rec, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Format != FormatVersion || rec.Header.Seed != 7 {
		t.Fatalf("header = %+v", rec.Header)
	}
	if rec.Header.ConfigHash != HashSpec([]byte(`{"trials":2}`)) {
		t.Fatalf("config hash %q", rec.Header.ConfigHash)
	}
	if len(rec.Trials) != 2 {
		t.Fatalf("trials = %d", len(rec.Trials))
	}
	tr := rec.Trials[0]
	if !tr.Truth || len(tr.Arrivals) != 2 || len(tr.Attackers) != 2 || len(tr.Spans) != 1 {
		t.Fatalf("trial 0 = %+v", tr)
	}
	if at, ok := tr.FindAttacker("model(m=1)"); !ok || len(at.Belief) != 1 || at.Belief[0].Posterior != 0.9 {
		t.Fatalf("model attacker record wrong: %+v", at)
	}
	if _, ok := tr.FindAttacker("ghost"); ok {
		t.Fatal("found nonexistent attacker")
	}
	// Trace round-trips the arrivals in time order.
	trace := tr.Trace()
	if trace.Len() != 2 || !trace.OccurredWithin(1, 15, 15) {
		t.Fatalf("trace reconstruction wrong: %d arrivals", trace.Len())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.BeginTrial(0, true, nil)
	r.Attacker(AttackerTrial{Name: "x"})
	r.Spans([]telemetry.Span{{ID: 1}})
	if err := r.EndTrial(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Trials() != 0 {
		t.Fatal("nil recorder counted trials")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty recording should error")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed header should error")
	}
	future := `{"format":99,"trials":0}` + "\n"
	if _, err := Read(strings.NewReader(future)); err == nil {
		t.Fatal("future format should be rejected")
	}
	bad := `{"format":1,"trials":1}` + "\n" + `{"trial":` + "\n"
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Fatal("malformed trial line should error")
	}
}

func TestDiffIdentical(t *testing.T) {
	a, err := Read(bytes.NewReader(sampleRecording(t, 7, false)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(sampleRecording(t, 7, false)))
	if err != nil {
		t.Fatal(err)
	}
	if ds := Diff(a, b); len(ds) != 0 {
		t.Fatalf("identical recordings diverge: %v", ds)
	}
}

func TestDiffPinpointsFirstDivergingProbe(t *testing.T) {
	a, err := Read(bytes.NewReader(sampleRecording(t, 7, false)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(sampleRecording(t, 7, true)))
	if err != nil {
		t.Fatal(err)
	}
	ds := Diff(a, b)
	if len(ds) == 0 {
		t.Fatal("diff missed the flipped outcome")
	}
	first := ds[0]
	if first.Trial != 1 || first.Attacker != "model(m=1)" || first.Probe != 0 || first.Field != "outcome" {
		t.Fatalf("first divergence = %+v", first)
	}
	if s := first.String(); !strings.Contains(s, "trial 1") || !strings.Contains(s, "probe 0") {
		t.Fatalf("divergence rendering: %q", s)
	}
}

func TestDiffHeaderLevel(t *testing.T) {
	a, _ := Read(bytes.NewReader(sampleRecording(t, 7, false)))
	b, _ := Read(bytes.NewReader(sampleRecording(t, 8, false)))
	ds := Diff(a, b)
	if len(ds) == 0 || ds[0].Trial != -1 || ds[0].Field != "seed" {
		t.Fatalf("seed divergence not flagged first: %v", ds)
	}
	if s := ds[0].String(); !strings.Contains(s, "header") {
		t.Fatalf("header divergence rendering: %q", s)
	}
}

func TestHashSpec(t *testing.T) {
	if HashSpec(nil) != "" {
		t.Fatal("empty spec should hash to empty string")
	}
	if HashSpec([]byte("a")) == HashSpec([]byte("b")) {
		t.Fatal("hash collision on trivial inputs")
	}
	if len(HashSpec([]byte("a"))) != 64 {
		t.Fatal("expected hex sha256")
	}
}

// FuzzTrialrecRead feeds the recording reader the user-supplied files
// `inspect -diff` and `inspect -replay` parse. Read must never panic, and
// every recording it accepts must parse the same way twice: Diff of the
// two parses finds no divergence. The corpus is seeded with the golden
// recordings plus truncated and garbled variants of them.
func FuzzTrialrecRead(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "experiment", "testdata", "golden_*.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) != 4 {
		f.Fatalf("found %d golden recordings, want 4", len(goldens))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])                                              // cut mid-line
		f.Add(data[:bytes.IndexByte(data, '\n')+1])                            // header only
		f.Add(bytes.Replace(data, []byte(`"truth":`), []byte(`"truth":{`), 1)) // garbled trial line
		f.Add(bytes.Replace(data, []byte(`"format":1`), []byte(`"format":"1"`), 1))
	}
	f.Add([]byte(`{"format":1}` + "\n\n" + `{"trial":0,"attackers":[{"name":"a","probes":[1,2],"outcomes":[true],"lost":[false,true,true]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second parse of an accepted recording failed: %v", err)
		}
		if ds := Diff(rec, again); len(ds) > 0 {
			t.Fatalf("accepted recording diverges from itself: %s (+%d more)", ds[0], len(ds)-1)
		}
	})
}
