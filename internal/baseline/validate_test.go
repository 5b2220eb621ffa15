package baseline_test

import (
	"slices"
	"testing"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/topology"
)

// bufShape is a collective's per-rank (in, out) buffer sizes for a total
// message of s bytes on n ranks.
type bufShape func(s int64, n int) (in, out int64)

func allReduceShape(s int64, _ int) (int64, int64)     { return s, s }
func allGatherShape(s int64, n int) (int64, int64)     { return s / int64(n), s }
func reduceScatterShape(s int64, n int) (int64, int64) { return s, s / int64(n) }

type prepCase struct {
	name  string
	shape bufShape
	prep  collective.Candidate
}

// prepCases lists every MSCCL++ AllReduce/AllGather candidate of c's
// environment, the three ReduceScatters, and all seven baseline Prepare*s.
func prepCases(c *collective.Comm) []prepCase {
	var cases []prepCase
	for _, a := range c.AllReduceAlgorithms() {
		cases = append(cases, prepCase{a.Name(), allReduceShape, a.Prepare})
	}
	for _, a := range c.AllGatherAlgorithms() {
		cases = append(cases, prepCase{a.Name(), allGatherShape, a.Prepare})
	}
	for _, a := range []collective.Algorithm{
		&collective.ReduceScatterAllPairsLL{}, &collective.ReduceScatterAllPairsHB{}, &collective.ReduceScatterRing{},
	} {
		cases = append(cases, prepCase{a.Name(), reduceScatterShape, a.Prepare})
	}
	nccl := func(c *collective.Comm) *ncclsim.Library { return ncclsim.New(c, 0) }
	msccl := func(c *collective.Comm) *mscclsim.Library { return mscclsim.New(c, 0) }
	simple := twosided.ProtoSimple
	return append(cases,
		prepCase{"nccl-Ring", allReduceShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return nccl(c).PrepareAllReduceRing(in, out, simple)
		}},
		prepCase{"nccl-Tree", allReduceShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return nccl(c).PrepareAllReduceTree(in, out, simple)
		}},
		prepCase{"nccl-AG-Ring", allGatherShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return nccl(c).PrepareAllGatherRing(in, out, simple)
		}},
		prepCase{"msccl-AllPairs1P", allReduceShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return msccl(c).PrepareAllReduceAllPairs1P(in, out)
		}},
		prepCase{"msccl-AllPairs2P", allReduceShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return msccl(c).PrepareAllReduceAllPairs2P(in, out, simple)
		}},
		prepCase{"msccl-Hier", allReduceShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return msccl(c).PrepareAllReduceHier(in, out, simple)
		}},
		prepCase{"msccl-AG-AllPairs", allGatherShape, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return msccl(c).PrepareAllGatherAllPairs(in, out, simple)
		}},
	)
}

// malformed returns the four kinds of bad per-rank buffer slices, each
// derived from a valid one: too short, a nil entry (rank 0 and the last
// rank), one buffer of a different size, and one buffer on the wrong rank.
func malformed(m *machine.Machine, bufs []*mem.Buffer) map[string][]*mem.Buffer {
	n := len(bufs)
	with := func(r int, b *mem.Buffer) []*mem.Buffer {
		bad := slices.Clone(bufs)
		bad[r] = b
		return bad
	}
	return map[string][]*mem.Buffer{
		"short":      bufs[:n-1],
		"nil rank 0": with(0, nil),
		"nil last":   with(n-1, nil),
		"unequal":    with(n-1, m.Alloc(n-1, "odd", 2*bufs[n-1].Size())),
		"wrong rank": with(1, m.Alloc(0, "misplaced", bufs[1].Size())),
	}
}

// TestMalformedBuffersRejected pins that every collective of the three
// libraries validates its buffers through collective's validators: each
// malformed input is an error from Prepare, never a panic or an accepted
// Exec. Every case must accept the valid buffers on at least one machine,
// so a rejection is never just "not applicable here".
func TestMalformedBuffersRejected(t *testing.T) {
	applicable := map[string]bool{}
	for _, env := range []*topology.Env{topology.A100_40G(1), topology.H100(1), topology.A100_40G(2)} {
		m := machine.New(env)
		m.MaterializeLimit = 0
		c := collective.New(m)
		n := c.Ranks()
		for _, pc := range prepCases(c) {
			inSize, outSize := pc.shape(1024*int64(n), n)
			in, out := make([]*mem.Buffer, n), make([]*mem.Buffer, n)
			for r := range in {
				in[r] = m.Alloc(r, "in", inSize)
				out[r] = m.Alloc(r, "out", outSize)
			}
			_, err := pc.prep(c, in, out)
			applicable[pc.name] = applicable[pc.name] || err == nil
			if err != nil {
				continue // not applicable on this machine
			}
			for side, bufs := range map[string][]*mem.Buffer{"in": in, "out": out} {
				for kind, bad := range malformed(m, bufs) {
					badIn, badOut := in, out
					if side == "in" {
						badIn = bad
					} else {
						badOut = bad
					}
					if p, err := tryPrepare(pc.prep, c, badIn, badOut); p != nil {
						t.Errorf("%s %s: %s %s buffers panicked: %v", env.Name, pc.name, kind, side, p)
					} else if err == nil {
						t.Errorf("%s %s: %s %s buffers accepted", env.Name, pc.name, kind, side)
					}
				}
			}
		}
	}
	for name, ok := range applicable {
		if !ok {
			t.Errorf("%s accepted valid buffers on no machine", name)
		}
	}
}

// tryPrepare runs prep, recovering a panic instead of propagating it.
func tryPrepare(prep collective.Candidate, c *collective.Comm, in, out []*mem.Buffer) (panicked any, err error) {
	defer func() { panicked = recover() }()
	_, err = prep(c, in, out)
	return nil, err
}
