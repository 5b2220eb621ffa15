// Package inference models the paper's end-to-end LLM inference workloads
// (Section 7.3): tensor-parallel transformer decode and prefill whose
// compute side follows a roofline model and whose communication side runs
// the actual simulated collectives — MSCCL++, NCCL-sim, or a vLLM-style
// custom kernel — at the workload's exact message sizes.
//
// The inference substitution (DESIGN.md): the paper measures vLLM/SGLang on
// real GPUs; decode speedups there are communication-fraction arithmetic
// over collective latencies, which we recompose with simulated latencies.
package inference

import (
	"fmt"
	"sync"

	"mscclpp/internal/baseline/mscclsim"
	"mscclpp/internal/baseline/ncclsim"
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Library selects the communication backend of a workload.
type Library string

// Backends.
const (
	LibMSCCLPP    Library = "mscclpp"
	LibNCCL       Library = "nccl"
	LibMSCCL      Library = "msccl"
	LibVLLMCustom Library = "vllm-custom"
)

// ARTimer measures AllReduce latency at arbitrary message sizes for one
// (environment, library) pair, caching per size. Each measurement is one
// MeasureAllReduce: a fresh simulated cluster per candidate algorithm and
// one timed run each. The paper times steady-state CUDA-graph replays after
// a warm-up; here one run is the steady state, because the simulator is
// deterministic (TestAllReduceCandidatesRunTwiceSameDuration).
//
// ARTimer is safe for concurrent use: workload sweeps fan decode/prefill
// steps out across a worker pool and share one timer per library. The
// measurement itself is deterministic, so concurrent misses for the same
// size redundantly compute the identical value.
type ARTimer struct {
	envFn func() *topology.Env
	lib   Library
	mu    sync.Mutex
	cache map[int64]sim.Duration
}

// NewARTimer returns a timer for lib on the environment produced by envFn.
func NewARTimer(envFn func() *topology.Env, lib Library) *ARTimer {
	return &ARTimer{envFn: envFn, lib: lib, cache: make(map[int64]sim.Duration)}
}

// Time returns the AllReduce latency for a message of msg bytes.
func (t *ARTimer) Time(msg int64) sim.Duration {
	if msg <= 0 {
		return 0
	}
	// Round up to 4*ranks alignment.
	env := t.envFn()
	align := int64(4 * env.TotalGPUs())
	if rem := msg % align; rem != 0 {
		msg += align - rem
	}
	t.mu.Lock()
	d, ok := t.cache[msg]
	t.mu.Unlock()
	if ok {
		return d
	}
	d, err := MeasureAllReduce(t.envFn(), t.lib, msg)
	if err != nil {
		panic(fmt.Sprintf("inference: measuring %s allreduce at %dB: %v", t.lib, msg, err))
	}
	t.mu.Lock()
	t.cache[msg] = d
	t.mu.Unlock()
	return d
}

// MeasureAllReduce times one library's best AllReduce at size bytes over
// collective.TimeBest: one run per candidate, since the simulator is
// deterministic (TestAllReduceCandidatesRunTwiceSameDuration pins that a
// second run takes exactly as long as the first).
func MeasureAllReduce(env *topology.Env, lib Library, size int64) (sim.Duration, error) {
	cands, err := allReduceCandidates(env, lib, size)
	if err != nil {
		return 0, err
	}
	d, _, err := collective.TimeBest(env, size, size, cands)
	if err != nil {
		return 0, fmt.Errorf("inference: %s allreduce at %dB: %w", lib, size, err)
	}
	return d, nil
}

// allReduceCandidates lists the AllReduce algorithms MeasureAllReduce tries
// for lib: MSCCL++'s tuned selection, the vLLM-style kernel, or the tuned
// baselines' ring/tree/all-pairs/hierarchical variants in LL and Simple.
func allReduceCandidates(env *topology.Env, lib Library, size int64) ([]collective.Candidate, error) {
	protos := []twosided.Proto{twosided.ProtoLL, twosided.ProtoSimple}
	var cands []collective.Candidate
	switch lib {
	case LibMSCCLPP:
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return c.SelectAllReduce(size).Prepare(c, in, out)
		})
	case LibVLLMCustom:
		cands = append(cands, (&collective.AllReduce1PAHB{}).Prepare)
	case LibNCCL:
		for _, p := range protos {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, p)
			})
			if env.Nodes > 1 {
				cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
					return ncclsim.New(c, 0).PrepareAllReduceTree(in, out, p)
				})
			}
		}
	case LibMSCCL:
		if env.Nodes > 1 {
			for _, p := range protos {
				cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
					return mscclsim.New(c, 0).PrepareAllReduceHier(in, out, p)
				})
			}
			break
		}
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return mscclsim.New(c, 0).PrepareAllReduceAllPairs1P(in, out)
		})
		for _, p := range protos {
			cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
				return mscclsim.New(c, 0).PrepareAllReduceAllPairs2P(in, out, p)
			})
		}
		cands = append(cands, func(c *collective.Comm, in, out []*mem.Buffer) (*collective.Exec, error) {
			return ncclsim.New(c, 0).PrepareAllReduceRing(in, out, twosided.ProtoSimple)
		})
	default:
		return nil, fmt.Errorf("inference: unknown library %q", lib)
	}
	return cands, nil
}

// Model describes a tensor-parallel transformer for the roofline.
type Model struct {
	Name   string
	Layers int
	Hidden int
	// WeightBytesPerGPU is the per-GPU resident weight footprint read every
	// decode step (dense layers; for MoE, the activated expert subset).
	WeightBytesPerGPU int64
	// KVBytesPerTokenPerGPU is the KV-cache footprint per context token.
	KVBytesPerTokenPerGPU int64
	// FLOPsPerTokenPerGPU is the forward FLOP count per generated/processed
	// token per GPU.
	FLOPsPerTokenPerGPU float64
	// Efficiency derates peak compute/memory (kernel overheads, attention
	// inefficiency).
	Efficiency float64
	// ARsPerLayer is the number of tensor-parallel AllReduces per layer
	// (post-attention and post-MLP).
	ARsPerLayer int
	// MoE, when non-nil, marks the model as expert-parallel: serving
	// iterations are priced by MoEDecodeStepCtx/MoEPrefillStep (roofline +
	// per-layer dispatch/combine all-to-all) instead of the dense step
	// functions. See MoESpec (moe.go).
	MoE *MoESpec
}

// KVShardBytes returns the per-GPU KV-cache footprint of tokens context
// tokens: layers x (K+V) x KV-heads x head-dim x dtype-bytes per token
// (the product folded into KVBytesPerTokenPerGPU, already divided by the
// tensor-parallel degree) times the token count. This is the shard one
// GPU ships to its decode-pool peer when a disaggregated deployment hands
// a finished prefill's cache over the fabric; every TP rank moves its own
// shard in parallel, so the bytes-on-the-wire total is this value times
// the TP degree.
func (m Model) KVShardBytes(tokens int) int64 {
	if tokens <= 0 {
		return 0
	}
	return int64(tokens) * m.KVBytesPerTokenPerGPU
}

// Llama3x70B returns the Llama3-70B model sharded over tp GPUs (paper
// Figure 11 setup: TP=8 on A100-80G).
func Llama3x70B(tp int) Model {
	const (
		layers = 80
		hidden = 8192
		params = 70.6e9
	)
	return Model{
		Name:                  "Llama3-70b",
		Layers:                layers,
		Hidden:                hidden,
		WeightBytesPerGPU:     int64(params * 2 / float64(tp)),
		KVBytesPerTokenPerGPU: int64(layers * 2 * 1024 * 2 / tp), // GQA: 8 KV heads x 128
		FLOPsPerTokenPerGPU:   2 * params / float64(tp),
		Efficiency:            0.55,
		ARsPerLayer:           2,
	}
}

// DeepSeekV3 returns the DeepSeek-V3 model sharded over tp GPUs (paper
// Figure 12 setup: TP=16 over two H100 nodes).
func DeepSeekV3(tp int) Model {
	const (
		layers    = 61
		hidden    = 7168
		activated = 37e9
	)
	return Model{
		Name:                  "DeepSeek-V3",
		Layers:                layers,
		Hidden:                hidden,
		WeightBytesPerGPU:     int64(activated * 1 / float64(tp)), // FP8 weights
		KVBytesPerTokenPerGPU: int64(layers * 576 * 2 / tp),       // MLA compressed KV
		FLOPsPerTokenPerGPU:   2 * activated / float64(tp),
		// MoE decode runs at very low MFU (expert gating, many small
		// grouped GEMMs, MLA decompression), so the roofline derate is much
		// harsher than for dense models.
		Efficiency:  0.08,
		ARsPerLayer: 2,
	}
}

// DecodeStep returns the virtual time of one decode iteration for a batch
// of bsz sequences with context length seqlen, using ar for the
// tensor-parallel AllReduces.
func DecodeStep(env *topology.Env, m Model, bsz, seqlen int, ar func(int64) sim.Duration) sim.Duration {
	return DecodeStepCtx(env, m, bsz, int64(bsz)*int64(seqlen), ar)
}

// DecodeStepCtx is DecodeStep for a heterogeneous batch: totalCtx is the sum
// of the context lengths of the bsz sequences (a continuous-batching batch
// mixes fresh and deep sequences, so only the total KV footprint matters to
// the roofline, not a shared seqlen).
func DecodeStepCtx(env *topology.Env, m Model, bsz int, totalCtx int64, ar func(int64) sim.Duration) sim.Duration {
	// Memory-bound side: weights are read once per step; KV cache is read
	// for every context token in the batch.
	memBytes := float64(m.WeightBytesPerGPU) + float64(totalCtx*m.KVBytesPerTokenPerGPU)
	memT := memBytes / (env.HBMBW * m.Efficiency)
	// Compute side (matters at large batch).
	flops := m.FLOPsPerTokenPerGPU * float64(bsz)
	compT := flops / (env.PeakTFLOPS * 1e3 * m.Efficiency) // TFLOPs -> FLOP/ns
	compute := sim.Duration(memT)
	if c := sim.Duration(compT); c > compute {
		compute = c
	}
	// Tensor-parallel AllReduce per layer: bsz x hidden activations (bf16).
	msg := int64(bsz) * int64(m.Hidden) * 2
	comm := sim.Duration(m.Layers*m.ARsPerLayer) * ar(msg)
	return compute + comm
}

// PrefillStep returns the virtual time of one prefill (prompt processing)
// iteration over bsz sequences of seqlen tokens.
func PrefillStep(env *topology.Env, m Model, bsz, seqlen int, ar func(int64) sim.Duration) sim.Duration {
	tokens := float64(bsz * seqlen)
	flops := m.FLOPsPerTokenPerGPU * tokens
	compT := sim.Duration(flops / (env.PeakTFLOPS * 1e3 * m.Efficiency))
	msg := int64(bsz) * int64(seqlen) * int64(m.Hidden) * 2
	comm := sim.Duration(m.Layers*m.ARsPerLayer) * ar(msg)
	return compT + comm
}

// Speedup computes a/b as a float ratio.
func Speedup(a, b sim.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// DecodeThroughput returns tokens/second for one decode step time.
func DecodeThroughput(bsz int, step sim.Duration) float64 {
	if step <= 0 {
		return 0
	}
	return float64(bsz) / (float64(step) / 1e9)
}
