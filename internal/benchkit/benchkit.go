// Package benchkit provides the measurement harness that regenerates the
// paper's tables and figures: message-size sweeps over the MSCCL++, NCCL-sim
// and MSCCL-sim libraries, series formatting, and summary statistics.
package benchkit

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// SmallSizes are the latency-regime message sizes of Figures 7-10 (1KB-1MB).
func SmallSizes() []int64 {
	var out []int64
	for s := int64(1 << 10); s <= 1<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// LargeSizes are the bandwidth-regime sizes of Figures 7-10 (1MB-1GB).
func LargeSizes() []int64 {
	var out []int64
	for s := int64(1 << 20); s <= 1<<30; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Point is one measurement. Dur is exact virtual time (ns), so a marshaled
// Point is a canonical, drift-free record of the simulation result.
type Point struct {
	Size int64        `json:"size"`
	Dur  sim.Duration `json:"dur_ns"`
	Algo string       `json:"algo,omitempty"`
}

// LatencyUS returns the latency in microseconds.
func (p Point) LatencyUS() float64 { return float64(p.Dur) / 1000 }

// AlgoBW returns the algorithm bandwidth in GB/s (size/time).
func (p Point) AlgoBW() float64 {
	if p.Dur <= 0 {
		return 0
	}
	return float64(p.Size) / float64(p.Dur)
}

// Series is a named sweep result.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// MeasureFn times one library's collective at one size.
type MeasureFn func(env *topology.Env, size int64) (sim.Duration, string, error)

// MaxParallel bounds the number of simulations Parallel runs concurrently.
// Each simulation owns its engine (and machine, fabric, buffers), so sweeps
// over independent configurations are embarrassingly parallel. Set to 1 to
// force sequential execution (e.g. when bisecting a nondeterminism report).
var MaxParallel = runtime.GOMAXPROCS(0)

// Parallel runs jobs 0..n-1 on a MaxParallel-bounded worker pool and waits
// for all of them. Jobs must be independent; each receives its index, so
// callers write results into index-stable slots and output ordering is
// unchanged from a sequential run. Do not nest Parallel calls.
func Parallel(n int, job func(i int)) {
	workers := MaxParallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Sweep measures sizes with fn, fanning the per-size simulations out across
// the worker pool. Every simulation is deterministic and owns its machine,
// so results (and their order) are identical to a sequential sweep; only
// wall-clock time changes. On error the first failing size (in size order)
// is reported.
func Sweep(env *topology.Env, name string, sizes []int64, fn MeasureFn) (Series, error) {
	s := Series{Name: name, Points: make([]Point, len(sizes))}
	errs := make([]error, len(sizes))
	Parallel(len(sizes), func(i int) {
		d, algo, err := fn(env, sizes[i])
		if err != nil {
			errs[i] = fmt.Errorf("%s at %d: %w", name, sizes[i], err)
			return
		}
		s.Points[i] = Point{Size: sizes[i], Dur: d, Algo: algo}
	})
	for i, err := range errs {
		if err != nil {
			return Series{Name: name, Points: s.Points[:i]}, err
		}
	}
	return s, nil
}

// MSCCLPPAllReduce measures the best MSCCL++ AllReduce (all applicable
// algorithms, best per size — the paper's methodology).
func MSCCLPPAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, size, size, mscclppAllReduceCands(env, size))
}

// NCCLAllReduce measures tuned NCCL-sim (best of ring Simple/LL and tree).
func NCCLAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, size, size, ncclAllReduceCands(env, size))
}

// MSCCLAllReduce measures tuned MSCCL-sim (best custom algorithm per size).
func MSCCLAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, size, size, mscclAllReduceCands(env, size))
}

// MSCCLPPAllGather measures the best MSCCL++ AllGather for a gathered size.
func MSCCLPPAllGather(env *topology.Env, total int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, shardBytes(env, total), total, mscclppAllGatherCands(env, total))
}

// NCCLAllGather measures NCCL-sim's ring AllGather.
func NCCLAllGather(env *topology.Env, total int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, shardBytes(env, total), total, ncclAllGatherCands(env, total))
}

// MSCCLAllGather measures MSCCL-sim's all-pairs AllGather (plus ring).
func MSCCLAllGather(env *topology.Env, total int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, shardBytes(env, total), total, mscclAllGatherCands(env, total))
}

// VLLMCustomAllReduce measures the vLLM-style custom kernel.
func VLLMCustomAllReduce(env *topology.Env, size int64) (sim.Duration, string, error) {
	return collective.TimeBest(env, size, size, vllmAllReduceCands(env, size))
}

// shardBytes is the per-rank input size of an AllGather of total gathered bytes.
func shardBytes(env *topology.Env, total int64) int64 { return total / int64(env.TotalGPUs()) }

// llSizeCap bounds the sizes at which LL-protocol and one-phase candidates
// are tried: they are never competitive above a few MB (the paper's tuned
// baselines pick protocols per size the same way) and their tiny chunk
// counts make huge-message simulation needlessly slow.
const llSizeCap = 4 << 20

// protosUpTo returns the protocols tried at size: Simple always, LL up to
// llSizeCap.
func protosUpTo(size int64) []twosided.Proto {
	if size <= llSizeCap {
		return []twosided.Proto{twosided.ProtoSimple, twosided.ProtoLL}
	}
	return []twosided.Proto{twosided.ProtoSimple}
}

// The *Cands functions list one library's candidate algorithms at one size
// for the measure functions above; TestRunTwiceSameDuration runs each one
// twice to pin that one timed run per candidate suffices.

func prepares(algos []collective.Algorithm) []collective.Candidate {
	cands := make([]collective.Candidate, len(algos))
	for i, a := range algos {
		cands[i] = a.Prepare
	}
	return cands
}

func mscclppAllReduceCands(env *topology.Env, _ int64) []collective.Candidate {
	return prepares(collective.New(machine.New(env)).AllReduceAlgorithms())
}

func ncclAllReduceCands(env *topology.Env, size int64) []collective.Candidate {
	var cands []collective.Candidate
	for _, p := range protosUpTo(size) {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, p)
		})
		if env.Nodes > 1 && size <= llSizeCap {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, p)
			})
		}
	}
	return cands
}

func mscclAllReduceCands(env *topology.Env, size int64) []collective.Candidate {
	var cands []collective.Candidate
	if env.Nodes > 1 {
		for _, p := range protosUpTo(size) {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, p)
			})
		}
		return cands
	}
	if size <= 256<<10 {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return mscclsim.New(c, 0).PrepareAllReduceAllPairs1P(in, out)
		})
	}
	for _, p := range protosUpTo(size) {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return mscclsim.New(c, 0).PrepareAllReduceAllPairs2P(in, out, p)
		})
	}
	return append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
		return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, twosided.ProtoSimple)
	})
}

func vllmAllReduceCands(*topology.Env, int64) []collective.Candidate {
	return []collective.Candidate{(&collective.AllReduce1PAHB{}).Prepare}
}

func mscclppAllGatherCands(env *topology.Env, _ int64) []collective.Candidate {
	return prepares(collective.New(machine.New(env)).AllGatherAlgorithms())
}

func ncclAllGatherCands(_ *topology.Env, total int64) []collective.Candidate {
	var cands []collective.Candidate
	for _, p := range protosUpTo(total) {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllGatherRing(in, out, p)
		})
	}
	return cands
}

func mscclAllGatherCands(_ *topology.Env, total int64) []collective.Candidate {
	var cands []collective.Candidate
	for _, p := range protosUpTo(total) {
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return mscclsim.New(c, 0).PrepareAllGatherAllPairs(in, out, p)
		}, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllGatherRing(in, out, p)
		})
	}
	return cands
}

// Geomean returns the geometric mean of positive ratios.
func Geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// HumanSize formats a byte count like the paper's axes (1K, 2M, 1G).
func HumanSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// PrintLatencyTable renders a latency (us) comparison for small sizes.
func PrintLatencyTable(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n%s — latency (us)\n", title)
	printTable(w, series, func(p Point) string { return fmt.Sprintf("%.2f", p.LatencyUS()) })
}

// PrintBandwidthTable renders an AlgoBW (GB/s) comparison for large sizes.
func PrintBandwidthTable(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n%s — AlgoBW (GB/s)\n", title)
	printTable(w, series, func(p Point) string { return fmt.Sprintf("%.1f", p.AlgoBW()) })
}

func printTable(w io.Writer, series []Series, cell func(Point) string) {
	if len(series) == 0 {
		return
	}
	var sizes []int64
	for _, p := range series[0].Points {
		sizes = append(sizes, p.Size)
	}
	header := []string{"size"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i, size := range sizes {
		row := []string{HumanSize(size)}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, cell(s.Points[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// SpeedupSummary prints per-size speedups of target over base and their
// geomean/max.
func SpeedupSummary(w io.Writer, label string, base, target Series) (geo, max float64) {
	var ratios []float64
	for i := range target.Points {
		if i >= len(base.Points) {
			break
		}
		r := float64(base.Points[i].Dur) / float64(target.Points[i].Dur)
		ratios = append(ratios, r)
		if r > max {
			max = r
		}
	}
	geo = Geomean(ratios)
	fmt.Fprintf(w, "%s: geomean %.2fx, max %.2fx\n", label, geo, max)
	return geo, max
}

// SortSizes sorts a size list ascending (helper for custom sweeps).
func SortSizes(sizes []int64) {
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
}
