package serve

// Callback-vs-Proc timing equivalence. The scheduler daemon exists in two
// forms: the reference blocking Proc (DriverProc) and the callback state
// machine (DriverCallback, the default) that lets the engine drain
// naturally with no parked goroutines. They must be indistinguishable in
// virtual time: every request's full lifecycle record — admission
// instants, first-token instants, completion instants, preemption and
// swap accounting — has to match to the nanosecond, for every converted
// daemon (unified chunked-prefill replicas, routed replicas, and the
// disaggregated prefill/decode pools with their KV-handoff transits).
// The tests run in exact metrics mode and require JSON-identical results.

import (
	"encoding/json"
	"testing"

	"mscclpp/internal/sim"
)

// driverConfig is the shared replica config, paged so the equivalence
// also covers the preemption/swap wake-ups (notify from At-callbacks).
func driverConfig(driver DriverMode) Config {
	cfg := testConfig()
	cfg.MaxBatch = 8
	cfg.KVCapacityBytes = 16 << 20
	cfg.ChunkTokens = 256
	cfg.KVPolicy = KVPaged
	cfg.Preempt = PreemptSwap
	cfg.Driver = driver
	return cfg
}

func driverWorkload() Workload {
	wl := Bursty(7301, 300, 40, 400, 200*sim.Millisecond, 50*sim.Millisecond,
		LogNormalLen(256, 0.6, 1024), LogNormalLen(32, 0.5, 96))
	return WithPriorities(wl, 7302, 0.6)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDriverEquivalenceUnified(t *testing.T) {
	wl := driverWorkload()
	run := func(d DriverMode) *Result {
		res, err := Run(driverConfig(d), wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cb, proc := run(DriverCallback), run(DriverProc)
	if len(cb.Preempts) == 0 {
		t.Error("workload triggered no preemptions; equivalence test lost its teeth")
	}
	if got, want := mustJSON(t, cb), mustJSON(t, proc); got != want {
		t.Errorf("callback and proc drivers disagree on the unified replica:\ncallback: %.400s\nproc:     %.400s", got, want)
	}
}

func TestDriverEquivalenceRouted(t *testing.T) {
	wl := driverWorkload()
	run := func(d DriverMode) *RoutedResult {
		res, err := RunRouted(RouterConfig{Replicas: 3, Policy: NewJSQ(), Replica: driverConfig(d)}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := mustJSON(t, run(DriverCallback)), mustJSON(t, run(DriverProc)); got != want {
		t.Errorf("callback and proc drivers disagree on routed replicas:\ncallback: %.400s\nproc:     %.400s", got, want)
	}
}

func TestDriverEquivalenceDisagg(t *testing.T) {
	wl := driverWorkload()
	run := func(d DriverMode) *DisaggResult {
		res, err := RunDisaggregated(DisaggConfig{
			PrefillReplicas: 2,
			DecodeReplicas:  2,
			Replica:         driverConfig(d),
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := mustJSON(t, run(DriverCallback)), mustJSON(t, run(DriverProc)); got != want {
		t.Errorf("callback and proc drivers disagree on disaggregated pools:\ncallback: %.400s\nproc:     %.400s", got, want)
	}
}

// TestDriverEquivalenceStream: same check in streaming mode — summaries
// (sketch-derived quantiles included: identical completion streams fold
// into identical buckets) must match exactly across drivers.
func TestDriverEquivalenceStream(t *testing.T) {
	wl := driverWorkload()
	slo := SLO{MaxTTFT: sim.Second, MaxTPOT: 10 * sim.Millisecond}
	run := func(d DriverMode) Summary {
		cfg := driverConfig(d)
		cfg.Metrics = MetricsStream
		cfg.SLO = slo
		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res.Summarize(slo)
	}
	if got, want := mustJSON(t, run(DriverCallback)), mustJSON(t, run(DriverProc)); got != want {
		t.Errorf("callback and proc drivers disagree on streamed summaries:\ncallback: %s\nproc: %s", got, want)
	}
}

// TestDriverEquivalenceAutoscaled covers the elastic fleet: provisioning,
// graceful drains with hand-backs re-routed to survivors, and retirement
// must all land on the same nanosecond under both drivers.
func TestDriverEquivalenceAutoscaled(t *testing.T) {
	wl := autoscaleTestWorkload()
	run := func(d DriverMode) *AutoscaleResult {
		cfg := autoscaleTestConfig()
		cfg.Driver = d
		res, err := RunAutoscaled(AutoscaleConfig{
			Replica:         cfg,
			Policy:          NewSLOPID(0, 0, 0),
			MinReplicas:     1,
			MaxReplicas:     3,
			InitialReplicas: 2,
			Interval:        10 * sim.Second,
			ProvisionDelay:  20 * sim.Second,
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cb, proc := run(DriverCallback), run(DriverProc)
	if len(cb.Drains) == 0 {
		t.Error("autoscaled run drained no replica; equivalence test lost its teeth")
	}
	if got, want := mustJSON(t, cb), mustJSON(t, proc); got != want {
		t.Errorf("callback and proc drivers disagree on the autoscaled fleet:\ncallback: %.400s\nproc:     %.400s", got, want)
	}
}

// TestDriverEquivalenceRatio covers slot conversions of a ratio-scaled
// disaggregated deployment: a conversion drain, the reboot into the other
// pool and the KV handoffs around it must match under both drivers.
func TestDriverEquivalenceRatio(t *testing.T) {
	wl := Poisson(4001, 400, 12, LogNormalLen(768, 0.6, 2048), LogNormalLen(24, 0.5, 64))
	run := func(d DriverMode) *RatioScaleResult {
		cfg := autoscaleTestConfig()
		cfg.Driver = d
		res, err := RunAutoscaledDisagg(DisaggScaleConfig{
			Slots:          4,
			InitialPrefill: 1,
			Replica:        cfg,
			Policy:         NewBacklogRatio(),
			Interval:       5 * sim.Second,
			ProvisionDelay: 10 * sim.Second,
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cb, proc := run(DriverCallback), run(DriverProc)
	if cb.Conversions == 0 {
		t.Error("ratio-scaled run converted no slot; equivalence test lost its teeth")
	}
	if got, want := mustJSON(t, cb), mustJSON(t, proc); got != want {
		t.Errorf("callback and proc drivers disagree on the ratio-scaled deployment:\ncallback: %.400s\nproc:     %.400s", got, want)
	}
}
