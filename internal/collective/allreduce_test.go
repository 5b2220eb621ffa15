package collective

import (
	"slices"
	"testing"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

func pattern(r int, i int64) float32 {
	return float32(r+1) + float32(i%13)*0.25
}

// runAllReduce prepares and runs one algorithm on a fresh machine, verifying
// numerical correctness, and returns the measured duration.
func runAllReduce(t *testing.T, env *topology.Env, algo Algorithm, size int64, iters int) sim.Duration {
	t.Helper()
	m := machine.New(env)
	m.MaterializeLimit = 1 << 40
	c := New(m)
	n := c.Ranks()
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	FillInputs(in, pattern)
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	var last sim.Duration
	for it := 0; it < iters; it++ {
		d, err := c.Run(ex)
		if err != nil {
			t.Fatalf("%s iter %d: %v", algo.Name(), it, err)
		}
		if d <= 0 {
			t.Fatalf("%s iter %d: non-positive duration %d", algo.Name(), it, d)
		}
		if err := CheckAllReduce(out, pattern, 1e-4); err != nil {
			t.Fatalf("%s iter %d: %v", algo.Name(), it, err)
		}
		last = d
	}
	return last
}

func TestAllReduce1PACorrectness(t *testing.T) {
	for _, size := range []int64{1 << 10, 32 << 10} {
		runAllReduce(t, topology.A100_40G(1), &AllReduce1PA{}, size, 3)
		runAllReduce(t, topology.H100(1), &AllReduce1PA{}, size, 2)
		runAllReduce(t, topology.MI300x(1), &AllReduce1PA{}, size, 2)
	}
}

func TestAllReduce2PALLCorrectness(t *testing.T) {
	for _, size := range []int64{32 << 10, 1 << 20} {
		runAllReduce(t, topology.A100_40G(1), &AllReduce2PALL{}, size, 3)
		runAllReduce(t, topology.MI300x(1), &AllReduce2PALL{}, size, 2)
	}
}

func TestAllReduce2PAHBCorrectness(t *testing.T) {
	for _, size := range []int64{256 << 10, 2 << 20} {
		runAllReduce(t, topology.A100_40G(1), &AllReduce2PAHB{}, size, 3)
		runAllReduce(t, topology.H100(1), &AllReduce2PAHB{}, size, 2)
	}
}

func TestAllReduce2PASwitchCorrectness(t *testing.T) {
	for _, size := range []int64{64 << 10, 2 << 20} {
		runAllReduce(t, topology.H100(1), &AllReduce2PASwitch{}, size, 3)
	}
}

func TestAllReduce2PASwitchRequiresNVLS(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	c := New(m)
	var in, out []*mem.Buffer
	for r := 0; r < c.Ranks(); r++ {
		in = append(in, m.Alloc(r, "in", 4096))
		out = append(out, m.Alloc(r, "out", 4096))
	}
	if _, err := (&AllReduce2PASwitch{}).Prepare(c, in, out); err == nil {
		t.Fatal("expected error preparing switch algorithm on A100")
	}
}

func TestAllReduce2PRCorrectness(t *testing.T) {
	for _, size := range []int64{64 << 10, 2 << 20} {
		runAllReduce(t, topology.A100_40G(1), &AllReduce2PR{}, size, 3)
		runAllReduce(t, topology.H100(1), &AllReduce2PR{UseMemoryChannel: true}, size, 2)
	}
}

func TestAllReduce2PHLLCorrectness(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		runAllReduce(t, topology.A100_40G(nodes), &AllReduce2PHLL{}, 64<<10, 2)
	}
}

func TestAllReduce2PHHBCorrectness(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		runAllReduce(t, topology.A100_40G(nodes), &AllReduce2PHHB{}, 4<<20, 2)
	}
}

func TestMultiNodeAlgosRejectSingleNode(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	c := New(m)
	var in, out []*mem.Buffer
	for r := 0; r < c.Ranks(); r++ {
		in = append(in, m.Alloc(r, "in", 8192))
		out = append(out, m.Alloc(r, "out", 8192))
	}
	if _, err := (&AllReduce2PHLL{}).Prepare(c, in, out); err == nil {
		t.Fatal("2PH-LL should reject single node")
	}
	if _, err := (&AllReduce2PHHB{}).Prepare(c, in, out); err == nil {
		t.Fatal("2PH-HB should reject single node")
	}
}

func TestSingleNodeAlgosRejectMultiNode(t *testing.T) {
	m := machine.New(topology.A100_40G(2))
	c := New(m)
	var in, out []*mem.Buffer
	for r := 0; r < c.Ranks(); r++ {
		in = append(in, m.Alloc(r, "in", 8192))
		out = append(out, m.Alloc(r, "out", 8192))
	}
	for _, a := range []Algorithm{&AllReduce1PA{}, &AllReduce2PALL{}, &AllReduce2PAHB{}, &AllReduce2PR{}} {
		if _, err := a.Prepare(c, in, out); err == nil {
			t.Fatalf("%s should reject multi-node", a.Name())
		}
	}
}

func TestValidateBufferErrors(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	c := New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := range in {
		in[r] = m.Alloc(r, "in", 4096)
		out[r] = m.Alloc(r, "out", 4096)
	}
	// Size mismatch.
	bad := make([]*mem.Buffer, c.Ranks())
	copy(bad, out)
	bad[3] = m.Alloc(3, "odd", 8192)
	if _, err := (&AllReduce1PA{}).Prepare(c, in, bad); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	// Wrong rank.
	bad2 := make([]*mem.Buffer, c.Ranks())
	copy(bad2, in)
	bad2[0] = m.Alloc(1, "wrong", 4096)
	if _, err := (&AllReduce1PA{}).Prepare(c, bad2, out); err == nil {
		t.Fatal("expected wrong-rank error")
	}
	// Wrong count.
	if _, err := (&AllReduce1PA{}).Prepare(c, in[:4], out); err == nil {
		t.Fatal("expected count error")
	}
	// Nil buffers, rank 0 included: an error, not a nil dereference.
	for _, r := range []int{0, 5} {
		nilIn := slices.Clone(in)
		nilIn[r] = nil
		if _, err := (&AllReduce1PA{}).Prepare(c, nilIn, out); err == nil {
			t.Fatalf("expected nil-buffer error for rank %d", r)
		}
	}
}

// runAllReduceTiming measures one algorithm without materializing data
// (virtual buffers: cost model only), for timing-shape assertions at large
// sizes.
func runAllReduceTiming(t *testing.T, env *topology.Env, algo Algorithm, size int64) sim.Duration {
	t.Helper()
	m := machine.New(env)
	m.MaterializeLimit = 0 // all buffers virtual
	c := New(m)
	n := c.Ranks()
	in := make([]*mem.Buffer, n)
	out := make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	d, err := c.Run(ex)
	if err != nil {
		t.Fatalf("%s: %v", algo.Name(), err)
	}
	return d
}

// Latency-regime ordering: 1PA must be the fastest algorithm at 1KB.
func TestAlgorithmRegimes1KB(t *testing.T) {
	size := int64(1 << 10)
	t1pa := runAllReduce(t, topology.A100_40G(1), &AllReduce1PA{}, size, 2)
	t2pa := runAllReduce(t, topology.A100_40G(1), &AllReduce2PALL{}, size, 2)
	t2pr := runAllReduce(t, topology.A100_40G(1), &AllReduce2PR{}, size, 2)
	if t1pa >= t2pr {
		t.Fatalf("1PA (%d) should beat ring (%d) at 1KB", t1pa, t2pr)
	}
	if t1pa > t2pa+t2pa/2 {
		t.Fatalf("1PA (%d) should not be much slower than 2PA-LL (%d) at 1KB", t1pa, t2pa)
	}
}

// Bandwidth-regime ordering: ring (port) must beat 1PA at 64MB, and the port
// variant must beat the memory variant at very large sizes (paper: +6.2%).
func TestAlgorithmRegimesLarge(t *testing.T) {
	size := int64(64 << 20)
	t2pr := runAllReduceTiming(t, topology.A100_40G(1), &AllReduce2PR{}, size)
	t2pahb := runAllReduceTiming(t, topology.A100_40G(1), &AllReduce2PAHB{}, size)
	t2prMem := runAllReduceTiming(t, topology.A100_40G(1), &AllReduce2PR{UseMemoryChannel: true}, size)
	if t2pr >= t2prMem {
		t.Fatalf("2PR-Port (%d) should beat 2PR-Memory (%d) at 64MB", t2pr, t2prMem)
	}
	// Both large-message algorithms should land within 3x of each other.
	lo, hi := t2pr, t2pahb
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 3*lo {
		t.Fatalf("2PR (%d) and 2PA-HB (%d) diverge implausibly", t2pr, t2pahb)
	}
}
