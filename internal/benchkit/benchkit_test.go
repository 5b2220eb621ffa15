package benchkit

import (
	"reflect"
	"testing"

	"mscclpp/internal/collective"
	"mscclpp/internal/topology"
)

// TestSweepParallelMatchesSequential pins the parallel-harness contract:
// fanning a sweep across workers changes wall-clock time only — every
// per-configuration result (duration, winning algorithm, ordering) is
// identical to a sequential run.
func TestSweepParallelMatchesSequential(t *testing.T) {
	env := topology.A100_40G(1)
	sizes := []int64{1 << 10, 8 << 10, 64 << 10, 512 << 10}
	old := MaxParallel
	defer func() { MaxParallel = old }()

	MaxParallel = 1
	seq, err := Sweep(env, "mscclpp", sizes, MSCCLPPAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	MaxParallel = 4
	par, err := Sweep(env, "mscclpp", sizes, MSCCLPPAllReduce)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged:\nseq %+v\npar %+v", seq, par)
	}
}

func TestParallelCoversAllIndices(t *testing.T) {
	old := MaxParallel
	defer func() { MaxParallel = old }()
	for _, workers := range []int{1, 3, 8} {
		MaxParallel = workers
		const n = 100
		hits := make([]int32, n)
		Parallel(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", g)
	}
}

func TestHumanSize(t *testing.T) {
	cases := map[int64]string{1 << 10: "1K", 2 << 20: "2M", 1 << 30: "1G", 1000: "1000"}
	for n, want := range cases {
		if got := HumanSize(n); got != want {
			t.Fatalf("HumanSize(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestRunTwiceSameDuration pins what lets collective.TimeBest time each
// candidate once: every candidate of every library's AllReduce and
// AllGather, run twice on one prepared machine, takes exactly the same
// virtual time both times, so a warm-up run changes no measurement.
func TestRunTwiceSameDuration(t *testing.T) {
	libs := []struct {
		name      string
		cands     func(env *topology.Env, size int64) []collective.Candidate
		allGather bool
	}{
		{"MSCCL++ AllReduce", mscclppAllReduceCands, false},
		{"NCCL AllReduce", ncclAllReduceCands, false},
		{"MSCCL AllReduce", mscclAllReduceCands, false},
		{"vLLM AllReduce", vllmAllReduceCands, false},
		{"MSCCL++ AllGather", mscclppAllGatherCands, true},
		{"NCCL AllGather", ncclAllGatherCands, true},
		{"MSCCL AllGather", mscclAllGatherCands, true},
	}
	ran := make(map[string]int)
	for _, env := range []*topology.Env{topology.H100(1), topology.A100_40G(2)} {
		for _, size := range []int64{8 << 10, 256 << 10, 4 << 20} {
			for _, lib := range libs {
				inSize := size
				if lib.allGather {
					inSize = shardBytes(env, size)
				}
				for i, prep := range lib.cands(env, size) {
					c, in, out := collective.NewTimingComm(env, inSize, size)
					ex, err := prep(c, in, out)
					if err != nil {
						continue // not applicable here
					}
					first, err := c.Run(ex)
					if err != nil {
						t.Fatalf("%s %s %d cand %d: %v", env.Name, lib.name, size, i, err)
					}
					second, err := c.Run(ex)
					if err != nil {
						t.Fatalf("%s %s %d cand %d: %v", env.Name, lib.name, size, i, err)
					}
					if first != second {
						t.Errorf("%s %s %s at %d: first run %d ns, second %d ns",
							env.Name, lib.name, ex.Name, size, first, second)
					}
					ran[lib.name]++
				}
			}
		}
	}
	for _, lib := range libs {
		if ran[lib.name] == 0 {
			t.Errorf("%s: no candidate was applicable anywhere", lib.name)
		}
	}
}
