package collective

import (
	"testing"
	"testing/quick"

	"mscclpp/internal/dsl"
	"mscclpp/internal/executor"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/topology"
)

// Property: every single-node AllReduce algorithm produces the bit-exact
// same (numerically summed) result for arbitrary aligned sizes and input
// patterns, across all three vendor environments.
func TestAllReduceAlgorithmsProperty(t *testing.T) {
	envs := []func(int) *topology.Env{topology.A100_40G, topology.H100, topology.MI300x}
	f := func(sizeUnits uint8, seed uint8, envIdx uint8, algoIdx uint8) bool {
		// size: multiple of 64 bytes (4*8*2 alignment for halves), 64B-64KB.
		size := int64(sizeUnits%64+1) * 1024
		env := envs[int(envIdx)%len(envs)](1)
		m := machine.New(env)
		m.MaterializeLimit = 1 << 40
		c := New(m)
		algos := []Algorithm{
			&AllReduce1PA{}, &AllReduce1PAHB{}, &AllReduce2PALL{},
			&AllReduce2PAHB{}, &AllReduce2PR{},
		}
		if env.HasMulticast {
			algos = append(algos, &AllReduce2PASwitch{})
		}
		algo := algos[int(algoIdx)%len(algos)]
		n := c.Ranks()
		in := make([]*mem.Buffer, n)
		out := make([]*mem.Buffer, n)
		for r := 0; r < n; r++ {
			in[r] = m.Alloc(r, "in", size)
			out[r] = m.Alloc(r, "out", size)
		}
		pat := func(r int, i int64) float32 {
			return float32((int64(seed)+int64(r)*7+i)%17) * 0.5
		}
		FillInputs(in, pat)
		ex, err := algo.Prepare(c, in, out)
		if err != nil {
			t.Logf("%s size=%d: %v", algo.Name(), size, err)
			return false
		}
		if _, err := c.Run(ex); err != nil {
			t.Logf("%s size=%d: %v", algo.Name(), size, err)
			return false
		}
		if err := CheckAllReduce(out, pat, 1e-4); err != nil {
			t.Logf("%s size=%d: %v", algo.Name(), size, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated invocations of one prepared kernel keep producing
// correct results (channel/semaphore/flag state is reusable, as required for
// CUDA-graph-style steady-state measurement). Every LL-flag kernel is
// covered — the four single-node ones, 2PH-LL on two nodes and a relaunched
// DSL executor plan — because their packet flags come from the invocation
// number the launch scaffold hands each invocation (k.Inv). The inputs
// change before every invocation, so a packet mistaken for a stale one
// shows up as a wrong result.
func TestRepeatedInvocationProperty(t *testing.T) {
	type check func(out []*mem.Buffer, shard int64, f func(r int, i int64) float32) error
	checkAR := func(out []*mem.Buffer, _ int64, f func(r int, i int64) float32) error {
		return CheckAllReduce(out, f, 1e-4)
	}
	checkAG := func(out []*mem.Buffer, shard int64, f func(r int, i int64) float32) error {
		return CheckAllGather(out, shard, f, 0)
	}
	checkRS := func(out []*mem.Buffer, _ int64, f func(r int, i int64) float32) error {
		return CheckReduceScatter(out, f, 1e-4)
	}
	prepAlgo := func(a Algorithm) func(c *Comm, in, out []*mem.Buffer) (func() error, error) {
		return func(c *Comm, in, out []*mem.Buffer) (func() error, error) {
			ex, err := a.Prepare(c, in, out)
			return func() error { _, err := c.Run(ex); return err }, err
		}
	}
	prepPlan := func(c *Comm, in, out []*mem.Buffer) (func() error, error) {
		prog, err := dsl.BuildAllReduce1PA(c.Ranks(), in[0].Size(), 2)
		if err != nil {
			return nil, err
		}
		pl, err := prog.Lower()
		if err != nil {
			return nil, err
		}
		inst, err := executor.New(c.C, pl, in, out)
		return func() error { inst.Launch(); return c.M.Run() }, err
	}
	cases := []struct {
		name          string
		env           *topology.Env
		inSize, outSz int64
		check         check
		prep          func(c *Comm, in, out []*mem.Buffer) (func() error, error)
	}{
		{"1PA", topology.A100_40G(1), 8192, 8192, checkAR, prepAlgo(&AllReduce1PA{})},
		{"2PA-LL", topology.A100_40G(1), 8192, 8192, checkAR, prepAlgo(&AllReduce2PALL{})},
		{"AG-AllPairs-LL", topology.A100_40G(1), 1024, 8192, checkAG, prepAlgo(&AllGatherAllPairsLL{})},
		{"RS-AllPairs-LL", topology.A100_40G(1), 8192, 1024, checkRS, prepAlgo(&ReduceScatterAllPairsLL{})},
		{"2PH-LL 2 nodes", topology.A100_40G(2), 64 << 10, 64 << 10, checkAR, prepAlgo(&AllReduce2PHLL{})},
		{"DSL executor 1PA", topology.A100_40G(1), 8192, 8192, checkAR, prepPlan},
	}
	for _, tc := range cases {
		f := func(iters uint8) bool {
			m := machine.New(tc.env)
			m.MaterializeLimit = 1 << 40
			c := New(m)
			in, out := c.alloc("in", tc.inSize), c.alloc("out", tc.outSz)
			FillInputs(in, pattern)
			run, err := tc.prep(c, in, out)
			if err != nil {
				t.Logf("%s: %v", tc.name, err)
				return false
			}
			for i := 0; i < int(iters%5)+2; i++ {
				pat := func(r int, idx int64) float32 { return pattern(r, idx) + float32(i) }
				FillInputs(in, pat)
				if err := run(); err != nil {
					t.Logf("%s invocation %d: %v", tc.name, i+1, err)
					return false
				}
				if err := tc.check(out, tc.inSize, pat); err != nil {
					t.Logf("%s invocation %d: %v", tc.name, i+1, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// Property: the simulation is deterministic — identical configurations give
// identical virtual durations.
func TestDeterminismProperty(t *testing.T) {
	f := func(sizeUnits uint8) bool {
		size := int64(sizeUnits%32+1) * 4096
		run := func() int64 {
			m := machine.New(topology.H100(1))
			m.MaterializeLimit = 0
			c := New(m)
			in := make([]*mem.Buffer, c.Ranks())
			out := make([]*mem.Buffer, c.Ranks())
			for r := 0; r < c.Ranks(); r++ {
				in[r] = m.Alloc(r, "in", size)
				out[r] = m.Alloc(r, "out", size)
			}
			ex, err := (&AllReduce2PAHB{}).Prepare(c, in, out)
			if err != nil {
				return -1
			}
			d, err := c.Run(ex)
			if err != nil {
				return -1
			}
			return d
		}
		a, b := run(), run()
		return a > 0 && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastFlat(t *testing.T) {
	for _, env := range []*topology.Env{topology.A100_40G(1), topology.H100(1)} {
		m := machine.New(env)
		m.MaterializeLimit = 1 << 40
		c := New(m)
		const size = 64 << 10
		in := make([]*mem.Buffer, c.Ranks())
		out := make([]*mem.Buffer, c.Ranks())
		for r := 0; r < c.Ranks(); r++ {
			in[r] = m.Alloc(r, "in", size)
			out[r] = m.Alloc(r, "out", size)
		}
		const root = 3
		in[root].FillPattern(func(i int64) float32 { return float32(i % 23) })
		d, err := c.Broadcast(in, out, root)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("duration %d", d)
		}
		for r := 0; r < c.Ranks(); r++ {
			if err := out[r].EqualFloat32(func(i int64) float32 { return float32(i % 23) }, 0); err != nil {
				t.Fatalf("%s rank %d: %v", env.Name, r, err)
			}
		}
	}
}

func TestBroadcastSwitch(t *testing.T) {
	m := machine.New(topology.H100(1))
	m.MaterializeLimit = 1 << 40
	c := New(m)
	const size = 2 << 20
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := 0; r < c.Ranks(); r++ {
		in[r] = m.Alloc(r, "in", size)
		out[r] = m.Alloc(r, "out", size)
	}
	in[0].FillPattern(func(i int64) float32 { return float32(i%13) - 5 })
	ex, err := (&BroadcastSwitch{Root: 0}).Prepare(c, in, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ex); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.Ranks(); r++ {
		if err := out[r].EqualFloat32(func(i int64) float32 { return float32(i%13) - 5 }, 0); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBroadcastInvalidRoot(t *testing.T) {
	m := machine.New(topology.A100_40G(1))
	c := New(m)
	in := make([]*mem.Buffer, c.Ranks())
	out := make([]*mem.Buffer, c.Ranks())
	for r := 0; r < c.Ranks(); r++ {
		in[r] = m.Alloc(r, "in", 4096)
		out[r] = m.Alloc(r, "out", 4096)
	}
	if _, err := (&BroadcastFlat{Root: 99}).Prepare(c, in, out); err == nil {
		t.Fatal("expected root-range error")
	}
}
