// Package collective implements the MSCCL++ collectives library (paper
// Section 6): AllReduce, AllGather and ReduceScatter algorithms written
// against the Primitive API, plus the NCCL-style Collective API with
// size-based algorithm selection.
//
// Algorithms implemented (names follow the paper):
//
//   - 1PA: one-phase all-pairs, LL protocol — small single-node messages.
//   - 2PA: two-phase all-pairs (ReduceScatter + AllGather), LL and HB
//     MemoryChannel variants and a SwitchChannel (NVLS) variant.
//   - 2PR: two-phase ring over PortChannel with reduction overlapped with
//     DMA-copy (paper Figure 6) — large single-node messages.
//   - 2PH: two-phase hierarchical, LL (small) and HB (large) variants —
//     multi-node messages.
//
// Buffer conventions match NCCL: AllReduce takes equal-sized in/out buffers
// of S bytes; AllGather takes S/N-byte shards in and S-byte out; ReduceScatter
// takes S bytes in and S/N out.
//
// Writing an algorithm: Prepare validates its buffers with the validator of
// its convention (ValidateAllReduce, ValidateAllGather or
// validateReduceScatterBufs), builds its channels and scratch once (newMesh,
// newPortMesh, newPortRing or newBarrier over the rank groups AllRanks,
// NodeRanks and ColumnRanks), derives its thread-block count from the
// message size, and returns NewExec with the kernel body. NewExec is the one
// launch scaffold: it runs the body on every rank in rank order, and the
// body reads its rank from k.GPU.Rank and, for LL packet flags, its 1-based
// invocation number from k.Inv. Blocks split their data with mem.Shard; the
// block-0 all-peer signal/wait round is mesh.signalWait, or mesh.gridSync
// between grid barriers.
package collective

import (
	"fmt"
	"slices"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// Comm wraps a machine with a communicator; all algorithm setups hang off it.
type Comm struct {
	M *machine.Machine
	C *core.Communicator
}

// New returns a collective communicator over all ranks of m.
func New(m *machine.Machine) *Comm {
	return &Comm{M: m, C: core.NewCommunicator(m)}
}

// Ranks returns the world size.
func (c *Comm) Ranks() int { return len(c.M.GPUs) }

// Exec is a prepared collective: channels and scratch are set up once;
// every Run launches one invocation of its per-rank kernel.
type Exec struct {
	Name   string
	kernel *machine.RankKernel
}

// NewExec prepares body as a collective kernel with nTB thread blocks on
// every rank of c. It is the one launch scaffold behind every algorithm of
// this package and of the baseline libraries (ncclsim, mscclsim), so
// benchmarks time them all uniformly. body finds its rank in k.GPU.Rank and
// its 1-based invocation number in k.Inv.
func NewExec(c *Comm, name string, nTB int, body func(k *machine.Kernel)) *Exec {
	return &Exec{Name: name, kernel: c.M.NewRankKernel(name, nTB, body)}
}

// Run performs one invocation of the prepared collective and returns its
// virtual duration (launch through last data arrival).
func (c *Comm) Run(ex *Exec) (sim.Duration, error) {
	start := c.M.Engine.Now()
	ex.kernel.Launch()
	if err := c.M.Run(); err != nil {
		return 0, fmt.Errorf("collective %s: %w", ex.Name, err)
	}
	return c.M.Engine.Now() - start, nil
}

// Algorithm prepares executions of one collective algorithm for a fixed set
// of buffers.
type Algorithm interface {
	Name() string
	// Prepare validates buffers, builds channels/scratch, and returns a
	// reusable Exec. in and out are indexed by rank.
	Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error)
}

// localCopy charges block k its shard of a local size-byte copy and moves
// the data.
func localCopy(k *machine.Kernel, dst *mem.Buffer, dstOff int64, src *mem.Buffer, srcOff, size int64) {
	off, n := mem.Shard(size, k.Block, k.NumBlocks)
	if n == 0 {
		return
	}
	k.LocalCopy(n, 1)
	src.CopyTo(dst, dstOff+off, srcOff+off, n)
}

// localReduce charges block k its shard of a local size-byte accumulate
// (dst += src) and applies it.
func localReduce(k *machine.Kernel, dst *mem.Buffer, dstOff int64, src *mem.Buffer, srcOff, size int64) {
	off, n := mem.Shard(size, k.Block, k.NumBlocks)
	if n == 0 {
		return
	}
	k.LocalReduce(n, 1)
	dst.AccumulateFrom(src, dstOff+off, srcOff+off, n)
}

// alloc allocates one size-byte buffer named name on every rank.
func (c *Comm) alloc(name string, size int64) []*mem.Buffer {
	bufs := make([]*mem.Buffer, c.Ranks())
	for r := range bufs {
		bufs[r] = c.M.Alloc(r, name, size)
	}
	return bufs
}

// validateEqualSized checks per-rank buffer arrays: one non-nil buffer per
// rank, living on that rank, all of one size (returned).
func validateEqualSized(c *Comm, bufs []*mem.Buffer, what string) (int64, error) {
	if len(bufs) != c.Ranks() {
		return 0, fmt.Errorf("collective: %d %s buffers for %d ranks", len(bufs), what, c.Ranks())
	}
	for r, b := range bufs {
		if b == nil {
			return 0, fmt.Errorf("collective: nil %s buffer for rank %d", what, r)
		}
		if b.Rank != r {
			return 0, fmt.Errorf("collective: %s buffer %d lives on rank %d", what, r, b.Rank)
		}
		if b.Size() != bufs[0].Size() {
			return 0, fmt.Errorf("collective: %s buffer sizes differ (%d vs %d)", what, b.Size(), bufs[0].Size())
		}
	}
	return bufs[0].Size(), nil
}

// ValidateAllReduce checks the AllReduce buffer convention (one equal-sized
// input and output buffer per rank, on that rank, the size a multiple of
// 4*ranks) and returns the size in bytes.
func (c *Comm) ValidateAllReduce(in, out []*mem.Buffer) (int64, error) {
	sIn, err := validateEqualSized(c, in, "input")
	if err != nil {
		return 0, err
	}
	sOut, err := validateEqualSized(c, out, "output")
	if err != nil {
		return 0, err
	}
	if sIn != sOut {
		return 0, fmt.Errorf("collective: allreduce in %d bytes != out %d bytes", sIn, sOut)
	}
	n := int64(c.Ranks())
	if sIn%(4*n) != 0 {
		return 0, fmt.Errorf("collective: size %d not divisible by 4*ranks", sIn)
	}
	return sIn, nil
}

// mesh is a full set of pairwise channels among a rank subset.
type mesh struct {
	chans map[int]map[int]*core.MemoryChannel // [local][peer]
}

// newMesh builds pairwise memory channels among ranks, binding each
// direction a->b as src[a] on a -> dst[b] on b (both indexed by rank).
func newMesh(c *Comm, ranks []int, src, dst []*mem.Buffer) *mesh {
	m := &mesh{chans: make(map[int]map[int]*core.MemoryChannel)}
	for _, r := range ranks {
		m.chans[r] = make(map[int]*core.MemoryChannel)
	}
	for i, a := range ranks {
		for _, b := range ranks[i+1:] {
			m.chans[a][b], m.chans[b][a] = c.C.NewMemoryChannelPairEx(a, b, src[a], dst[b], src[b], dst[a])
		}
	}
	return m
}

// at returns rank r's channel to peer p.
func (m *mesh) at(r, p int) *core.MemoryChannel { return m.chans[r][p] }

// signalAll signals k's rank's channel to every peer, in order.
func (m *mesh) signalAll(k *machine.Kernel, peers []int) {
	for _, p := range peers {
		m.at(k.GPU.Rank, p).Signal(k)
	}
}

// signalWait is the all-pairs rank barrier among ranks (relaxed-semantics
// flags in the real implementation): k's rank signals every peer, then
// waits for every peer's signal. One block per rank runs it.
func (m *mesh) signalWait(k *machine.Kernel, ranks []int) {
	peers := PeersOf(ranks, k.GPU.Rank)
	m.signalAll(k, peers)
	for _, p := range peers {
		m.at(k.GPU.Rank, p).Wait(k)
	}
}

// gridSync is signalWait run by block 0 between two grid barriers: no block
// of k's kernel passes it before every peer in ranks has arrived.
func (m *mesh) gridSync(k *machine.Kernel, ranks []int) {
	k.GridBarrier()
	if k.Block == 0 {
		m.signalWait(k, ranks)
	}
	k.GridBarrier()
}

// newBarrier builds a mesh over 4-byte dummy buffers, used only for its
// signalWait/gridSync rank barrier (switch-based algorithms).
func newBarrier(c *Comm, ranks []int) *mesh {
	dummies := make([]*mem.Buffer, c.Ranks())
	for _, r := range ranks {
		dummies[r] = mem.NewBuffer(r, "barrier", 4)
	}
	return newMesh(c, ranks, dummies, dummies)
}

// portMesh is a full set of pairwise PortChannels among a rank subset.
type portMesh struct {
	chans map[int]map[int]*core.PortChannel
}

// newPortMesh builds pairwise port channels among ranks with per-direction
// bindings like newMesh.
func newPortMesh(c *Comm, ranks []int, src, dst []*mem.Buffer) *portMesh {
	m := &portMesh{chans: make(map[int]map[int]*core.PortChannel)}
	for _, r := range ranks {
		m.chans[r] = make(map[int]*core.PortChannel)
	}
	for i, a := range ranks {
		for _, b := range ranks[i+1:] {
			m.chans[a][b], m.chans[b][a] = c.C.NewPortChannelPairEx(a, b, src[a], dst[b], src[b], dst[a])
		}
	}
	return m
}

// at returns rank r's port channel to peer p.
func (m *portMesh) at(r, p int) *core.PortChannel { return m.chans[r][p] }

// PeersOf returns r's peers within the rank group ranks in deterministic
// order, rotated so each rank starts with a different peer (spreading load,
// paper §7.2). It panics if r is not in ranks.
func PeersOf(ranks []int, r int) []int {
	idx := slices.Index(ranks, r)
	if idx < 0 {
		panic(fmt.Sprintf("collective: rank %d not in group %v", r, ranks))
	}
	out := make([]int, 0, len(ranks)-1)
	for s := 1; s < len(ranks); s++ {
		out = append(out, ranks[(idx+s)%len(ranks)])
	}
	return out
}

// AllRanks returns the rank group [0, Ranks()).
func (c *Comm) AllRanks() []int {
	rs := make([]int, c.Ranks())
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// NodeRanks returns the global ranks of one node.
func (c *Comm) NodeRanks(node int) []int {
	g := c.M.Env.GPUsPerNode
	rs := make([]int, g)
	for i := range rs {
		rs[i] = node*g + i
	}
	return rs
}

// ColumnRanks returns the global ranks with local index l on every node:
// the cross-node group of hierarchical algorithms.
func (c *Comm) ColumnRanks(l int) []int {
	rs := make([]int, c.M.Env.Nodes)
	for n := range rs {
		rs[n] = n*c.M.Env.GPUsPerNode + l
	}
	return rs
}

// FillInputs fills in[r] element i with f(r, i) (test/bench helper).
func FillInputs(in []*mem.Buffer, f func(r int, i int64) float32) {
	for r, b := range in {
		rr := r
		b.FillPattern(func(i int64) float32 { return f(rr, i) })
	}
}

// CheckAllReduce verifies out[r] == sum over ranks of f(rank, i) for all r.
func CheckAllReduce(out []*mem.Buffer, f func(r int, i int64) float32, eps float32) error {
	n := len(out)
	want := func(i int64) float32 {
		var s float32
		for r := 0; r < n; r++ {
			s += f(r, i)
		}
		return s
	}
	for r, b := range out {
		if err := b.EqualFloat32(want, eps); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// CheckAllGather verifies out[r] is the concatenation of the shards,
// where shard p element i equals f(p, i).
func CheckAllGather(out []*mem.Buffer, shardBytes int64, f func(p int, i int64) float32, eps float32) error {
	n := len(out)
	shardEl := shardBytes / 4
	want := func(i int64) float32 {
		p := i / shardEl
		if p >= int64(n) {
			p = int64(n) - 1
		}
		return f(int(p), i%shardEl)
	}
	for r, b := range out {
		if err := b.EqualFloat32(want, eps); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// CheckReduceScatter verifies out[r] element i == sum over p of
// f(p, r*outEl+i).
func CheckReduceScatter(out []*mem.Buffer, f func(p int, i int64) float32, eps float32) error {
	n := len(out)
	for r, b := range out {
		outEl := b.Size() / 4
		base := int64(r) * outEl
		want := func(i int64) float32 {
			var s float32
			for p := 0; p < n; p++ {
				s += f(p, base+i)
			}
			return s
		}
		if err := b.EqualFloat32(want, eps); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}
