package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs and finds the goldens.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func findWorkload(t *testing.T, name string) *workload {
	t.Helper()
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// shortRun sets a workload up and times its first n ops.
func shortRun(t *testing.T, name string, seed uint64, n int) (*bench, phase) {
	t.Helper()
	b, err := findWorkload(t, name).setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	p := measure(b, stopRule{exact: n}, nil, &stderr)
	if p.ops != n || p.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed:\n%s", name, p.failed, p.ops, stderr.String())
	}
	return b, p
}

func TestSmokeCollectives(t *testing.T) {
	for _, name := range []string{"coll-h100-nvls", "coll-a100"} {
		b, _ := shortRun(t, name, 1, 12)
		if err := b.sample(); err != nil {
			t.Errorf("%s: materialized sample: %v", name, err)
		}
	}
}

// TestDSLCellsMatchGolden runs every DSL plan of coll-a100, four of which
// are checked against the dslvsprim golden.
func TestDSLCellsMatchGolden(t *testing.T) {
	b, err := setupA100(0)
	if err != nil {
		t.Fatal(err)
	}
	var ran int
	for _, c := range b.cells {
		if !strings.HasPrefix(c.name, "dsl/") {
			continue
		}
		if _, err := c.run(nil); err != nil {
			t.Error(err)
		}
		ran++
	}
	if ran != len(dslCases) {
		t.Fatalf("ran %d DSL cells, want %d", ran, len(dslCases))
	}
}

func TestCollDigestIgnoresSeed(t *testing.T) {
	_, a := shortRun(t, "coll-a100", 1, 6)
	_, b := shortRun(t, "coll-a100", 2, 6)
	if a.digest != b.digest {
		t.Fatalf("coll-a100 digest depends on the seed: %x vs %x", a.digest, b.digest)
	}
}

// TestServeFleet checks the serving cells: the same seed gives the same
// digest, another seed changes it, and the load makes paged KV preempt.
func TestServeFleet(t *testing.T) {
	b, a := shortRun(t, "serve-fleet", 7, 2)
	if b.count.preemptions == 0 {
		t.Errorf("serve-fleet cells recorded no preemptions; the load does not engage paged KV eviction")
	}
	_, again := shortRun(t, "serve-fleet", 7, 2)
	if a.digest != again.digest {
		t.Errorf("same seed, different digests: %x vs %x", a.digest, again.digest)
	}
	_, other := shortRun(t, "serve-fleet", 8, 2)
	if a.digest == other.digest {
		t.Errorf("seeds 7 and 8 give the same digest %x", a.digest)
	}
}

func TestFold(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mscclpp/internal/mem.ReduceBroadcast", "mscclpp/internal/core.(*SwitchChannel).Reduce"}, "mem"},
		{[]string{"runtime.memmove", "mscclpp/internal/mem.(*Buffer).CopyFrom", "runtime.goexit"}, "mem"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "runtime.chansend", "mscclpp/internal/baseline/twosided.(*Conn).Send", "runtime.goexit"}, "runtime.sched"},
		{[]string{"runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.schedloop"},
		{[]string{"mscclpp/internal/sim.(*heap[go.shape.struct { T int }]).push", "mscclpp/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "mscclpp/internal/serve.(*Scheduler).admit"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "mscclpp/internal/serve.Run"}, "runtime.gc"},
		{[]string{"sort.insertionSort", "mscclpp/internal/serve.MergeResults"}, "serve"},
		{[]string{"mscclpp/internal/topology.(*Env).TotalGPUs"}, "other"},
		{[]string{"main.measure", "main.main"}, "bench"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := fold(c.stack); got != c.want {
			t.Errorf("fold(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFoldRaw folds a hand-written `go tool pprof -raw` listing: an
// inlined frame charges its sample to the inlining function's caller
// chain, and a generic name with spaces is read whole.
func TestFoldRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 
          1   10000000: 3 
Locations
     1: 0x46c288 M=1 runtime.memmove /go/src/runtime/memmove_amd64.s:100:0 s=0
     2: 0x4b96ce M=1 mscclpp/internal/mem.(*Buffer).CopyFrom /repo/internal/mem/buffer.go:9:0 s=9
             mscclpp/internal/mem.ReduceBroadcast /repo/internal/mem/multimem.go:40:0 s=30
     3: 0x4b9747 M=1 mscclpp/internal/sim.(*heap[go.shape.struct { T int }]).push /repo/internal/sim/heap.go:14:0 s=11
Mappings
1: 0x400000/0x4ba000/0x0 /bin/perfbench
`
	got, err := foldRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got["mem"] != 30_000_000 || got["sim"] != 10_000_000 {
		t.Errorf("mem %d ns, sim %d ns; want 30000000 and 10000000", got["mem"], got["sim"])
	}
	if _, err := foldRaw(strings.Replace(raw, ": 3 \n", ": 4 \n", 1)); err == nil {
		t.Error("a sample naming an unknown location folded without error")
	}
}

// TestCLI runs the command end to end on the smallest budget and checks
// its last line carries exactly the end-to-end metrics.
func TestCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "coll-a100", "--seed", "3", "--seconds", "0.001", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var keys []string
	for k, m := range res.Metrics {
		keys = append(keys, k)
		if !(m.Value > 0) {
			t.Errorf("%s = %v, want > 0", k, m.Value)
		}
	}
	sort.Strings(keys)
	want := "ok_frac op_p50_ms op_p90_ms ops_per_s peak_rss_mb setup_s"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("metrics %s, want %s", got, want)
	}
}

// TestCLITraced runs a traced run on the smallest budget and checks its
// last line carries exactly the per-layer metrics BENCHMARK.json lists,
// with the folded profile buckets adding up to the profile's total.
func TestCLITraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "coll-h100-nvls", "--seed", "4", "--seconds", "0.001", "--trace", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	// Each of the two phases runs one whole pass over the grid.
	b, err := setupH100(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*b.stride {
		t.Errorf("correct=%v attempted=%d failed=%d, want a correct run of %d ops", res.Correct, res.Attempted, res.Failed, 2*b.stride)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	if v := res.Metrics["host.ref_ms"].Value; v <= 0 {
		t.Errorf("host.ref_ms is %v", v)
	}
	var sum float64
	for _, l := range profLayers {
		sum += res.Metrics["prof."+l+".self_s"].Value
	}
	if total := res.Metrics["prof.total_s"].Value; math.Abs(sum-total) > 1e-9 {
		t.Errorf("prof buckets sum to %v s, prof.total_s is %v s", sum, total)
	}
}

func TestCLIRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "coll-a100", "--trace", "2"},
		{"--workload", "coll-a100", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestNormalize checks an op is scaled by the median of the reference
// chunks around it: the refWindow before it, its own included, and the
// refWindow after it.
func TestNormalize(t *testing.T) {
	const r = refNominalMs
	// Nine ops; op 4's window is chunks 1..8, whose median is 2r despite
	// one 9 ms outlier, so op 4 reads half its CPU time.
	ref := []float64{r, 2 * r, 2 * r, 2 * r, 2 * r, 2 * r, 9, 2 * r, r}
	ops := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10}
	got := normalize(ops, ref)
	if got[4] != 5 {
		t.Errorf("op 4 scaled to %v ms, want 5", got[4])
	}
	// Op 0's window is chunks 0..4: median 2r.
	if got[0] != 5 {
		t.Errorf("op 0 scaled to %v ms, want 5", got[0])
	}
}

// TestPassMedians checks each op takes the median of the ops at its place
// in every pass, and a single pass is left as it is.
func TestPassMedians(t *testing.T) {
	got := passMedians([]float64{1, 10, 3, 20, 2, 90}, 2)
	want := []float64{2, 20, 2, 20, 2, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("passMedians = %v, want %v", got, want)
			break
		}
	}
	one := []float64{4, 1, 7}
	for i, v := range passMedians(one, 3) {
		if v != one[i] {
			t.Errorf("one pass changed: %v", passMedians(one, 3))
			break
		}
	}
}

// TestHostRefSteady checks the reference chunk does the same work each
// time and allocates nothing after its first run.
func TestHostRefSteady(t *testing.T) {
	r := newHostRef()
	defer r.close()
	r.ms()
	sink := r.sink
	r.ms()
	if d := r.sink - sink; d != sink {
		t.Errorf("second chunk added %d to the sink, the first %d", d, sink)
	}
	if a := testing.AllocsPerRun(5, func() { r.ms() }); a != 0 {
		t.Errorf("reference chunk allocates %v times a run", a)
	}
}
