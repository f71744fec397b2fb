package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"flowrecon/internal/stats"
	"flowrecon/internal/telemetry"
	"flowrecon/internal/trialrec"
)

// recordRun executes one recorded trial run at the given parallelism and
// returns the raw recording bytes plus the aggregate results.
func recordRun(t *testing.T, spec RecordingSpec, parallelism int) ([]byte, []AttackerResult) {
	t.Helper()
	nc, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(attackers))
	for i, a := range attackers {
		names[i] = a.Name()
	}
	var buf bytes.Buffer
	rec, err := trialrec.NewRecorder(&buf, trialrec.Header{
		Seed: spec.TrialSeed, Trials: spec.Trials, Attackers: names,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := RunTrialsOpts(nc, attackers, spec.Trials, spec.Measurement,
		stats.NewRNG(spec.TrialSeed), TrialOptions{Recorder: rec, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), results
}

// TestParallelTrialsByteIdentical is the tentpole determinism guarantee:
// fanning trials over a worker pool must produce the byte-for-byte same
// trial recording (arrivals, probes, outcomes, belief steps, spans) and
// identical aggregate results as a serial run — recordings stay
// replayable no matter how the run was scheduled.
func TestParallelTrialsByteIdentical(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      24,
		Probes:      2,
		Measurement: DefaultMeasurement(),
	}
	serialBytes, serialResults := recordRun(t, spec, 1)
	for _, workers := range []int{2, 4, 7} {
		parBytes, parResults := recordRun(t, spec, workers)
		if !reflect.DeepEqual(serialResults, parResults) {
			t.Fatalf("parallelism %d: results diverge:\n serial   %+v\n parallel %+v", workers, serialResults, parResults)
		}
		if !bytes.Equal(serialBytes, parBytes) {
			a, err := trialrec.Read(bytes.NewReader(serialBytes))
			if err != nil {
				t.Fatal(err)
			}
			b, err := trialrec.Read(bytes.NewReader(parBytes))
			if err != nil {
				t.Fatal(err)
			}
			ds := trialrec.Diff(a, b)
			if len(ds) > 0 {
				t.Fatalf("parallelism %d: recording diverges, first divergence: %s", workers, ds[0])
			}
			t.Fatalf("parallelism %d: recordings differ at the byte level (outcomes agree — span or encoding nondeterminism)", workers)
		}
	}
}

// TestParallelTrialsDiffClean runs the semantic comparison: the parallel
// recording must parse and show zero trialrec divergences against serial.
func TestParallelTrialsDiffClean(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  5,
		TrialSeed:   17,
		Trials:      12,
		Probes:      1,
		Measurement: DefaultMeasurement(),
	}
	serialBytes, _ := recordRun(t, spec, 1)
	parBytes, _ := recordRun(t, spec, 3)
	a, err := trialrec.Read(bytes.NewReader(serialBytes))
	if err != nil {
		t.Fatal(err)
	}
	b, err := trialrec.Read(bytes.NewReader(parBytes))
	if err != nil {
		t.Fatal(err)
	}
	if ds := trialrec.Diff(a, b); len(ds) > 0 {
		t.Fatalf("parallel vs serial diverges: %s (+%d more)", ds[0], len(ds)-1)
	}
	if len(a.Trials) != spec.Trials {
		t.Fatalf("recorded %d trials, want %d", len(a.Trials), spec.Trials)
	}
}

// TestParallelTrialsResultsOnly checks the unobserved fast path (no
// recorder, no spans): results must match serial exactly, and the
// workers-busy gauge must return to zero.
func TestParallelTrialsResultsOnly(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      20,
		Probes:      2,
		Measurement: DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := RunTrialsOpts(nc, attackers, spec.Trials, spec.Measurement,
		stats.NewRNG(spec.TrialSeed), TrialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1024)
	par, _, err := RunTrialsOpts(nc, attackers, spec.Trials, spec.Measurement,
		stats.NewRNG(spec.TrialSeed), TrialOptions{Registry: reg, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("results diverge:\n serial   %+v\n parallel %+v", serial, par)
	}
	if v := reg.Gauge("experiment_trial_workers_busy").Value(); v != 0 {
		t.Fatalf("workers-busy gauge stuck at %d", v)
	}
	if v := reg.Gauge("experiment_trial_workers").Value(); v != 4 {
		t.Fatalf("workers gauge = %d, want 4", v)
	}
}

// TestPerTrialForcesSerial: cumulative per-trial snapshots are
// order-sensitive, so PerTrial must run serially (and still return one
// record per trial) regardless of the requested parallelism.
func TestPerTrialForcesSerial(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      6,
		Probes:      1,
		Measurement: DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1024)
	_, records, err := RunTrialsOpts(nc, attackers, spec.Trials, spec.Measurement,
		stats.NewRNG(spec.TrialSeed), TrialOptions{Registry: reg, PerTrial: true, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != spec.Trials {
		t.Fatalf("got %d per-trial records, want %d", len(records), spec.Trials)
	}
	for i, r := range records {
		if r.Trial != i {
			t.Fatalf("record %d has trial index %d", i, r.Trial)
		}
	}
}

// TestPerTrialRecordsCarryNoRingCopy: a per-trial record is a snapshot of
// the instruments, not of the trace ring. With a ring copy in every
// record the records' total size grew with the square of the trial
// count; without it each record's size is bounded by the instrument set.
func TestPerTrialRecordsCarryNoRingCopy(t *testing.T) {
	spec := RecordingSpec{
		Params:      tinyParams(),
		ConfigSeed:  11,
		TrialSeed:   13,
		Trials:      12,
		Probes:      1,
		Measurement: DefaultMeasurement(),
	}
	nc, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	attackers, err := StandardAttackers(nc, spec.Probes)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1 << 14)
	_, records, err := RunTrialsOpts(nc, attackers, spec.Trials, spec.Measurement,
		stats.NewRNG(spec.TrialSeed), TrialOptions{Registry: reg, PerTrial: true})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Tracer().Total() == 0 {
		t.Fatal("the trial tables emitted no trace events; the test proves nothing")
	}
	var sizes []int
	for _, r := range records {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(blob), `"events"`) {
			t.Fatalf("trial %d record carries the trace ring: %.200s", r.Trial, blob)
		}
		sizes = append(sizes, len(blob))
	}
	if first, last := sizes[0], sizes[len(sizes)-1]; last > 2*first {
		t.Fatalf("record size grew from %d B (trial 0) to %d B (trial %d)", first, last, len(sizes)-1)
	}
}
