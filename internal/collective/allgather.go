package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// ValidateAllGather checks the NCCL AllGather convention — in[r] holds rank
// r's shard (S/N bytes, a non-zero multiple of 4), out[r] the gathered
// result (S bytes), one buffer of each per rank on that rank — and returns
// the shard size in bytes.
func (c *Comm) ValidateAllGather(in, out []*mem.Buffer) (shard int64, err error) {
	shard, err = validateEqualSized(c, in, "input")
	if err != nil {
		return 0, err
	}
	total, err := validateEqualSized(c, out, "output")
	if err != nil {
		return 0, err
	}
	if total != shard*int64(c.Ranks()) {
		return 0, fmt.Errorf("collective: allgather out %d != shard %d * ranks %d",
			total, shard, c.Ranks())
	}
	if shard%4 != 0 || shard == 0 {
		return 0, fmt.Errorf("collective: allgather shard %d not usable", shard)
	}
	return shard, nil
}

// AllGatherAllPairsLL gathers with the LL protocol: every rank packet-puts
// its shard to every peer's scratch and unpacks on arrival. Lowest latency
// for small shards.
type AllGatherAllPairsLL struct{}

// Name implements Algorithm.
func (a *AllGatherAllPairsLL) Name() string { return "mscclpp-AG-AllPairs-LL" }

// Prepare implements Algorithm.
func (a *AllGatherAllPairsLL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := c.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	scratch := c.alloc("agll.scratch", shard*int64(len(ranks)))
	m := newMesh(c, ranks, in, scratch)
	nTB := min(int(shard/(16<<10))+1, 4)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).PutPackets(k, int64(r)*shard, 0, shard, k.Block, k.NumBlocks, k.Inv)
		}
		localCopy(k, out[r], int64(r)*shard, in[r], 0, shard)
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).AwaitPackets(k, k.Inv, uint64(shard))
			localCopy(k, out[r], int64(p)*shard, scratch[r], int64(p)*shard, shard)
		}
	}), nil
}

// AllGatherAllPairsHB gathers with direct zero-copy puts: every rank writes
// its shard straight into every peer's output buffer and signals once. One
// synchronization round, no scratch, no unpack — MSCCL++'s advantage over
// send/recv libraries.
type AllGatherAllPairsHB struct{}

// Name implements Algorithm.
func (a *AllGatherAllPairsHB) Name() string { return "mscclpp-AG-AllPairs-HB" }

// Prepare implements Algorithm.
func (a *AllGatherAllPairsHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := c.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	m := newMesh(c, ranks, in, out)
	nTB := min(max(int(shard/(128<<10)), 2), 16)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).Put(k, int64(r)*shard, 0, shard, k.Block, k.NumBlocks)
		}
		localCopy(k, out[r], int64(r)*shard, in[r], 0, shard)
		m.gridSync(k, ranks)
	}), nil
}

// AllGatherRing forwards shards around a PortChannel ring (DMA engines),
// zero-copy into outputs: best intra-node bandwidth at large shard sizes.
type AllGatherRing struct{}

// Name implements Algorithm.
func (a *AllGatherRing) Name() string { return "mscclpp-AG-Ring-Port" }

// Prepare implements Algorithm.
func (a *AllGatherRing) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := c.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	n := c.Ranks()
	ring := newPortRing(c, out, out)
	return NewExec(c, a.Name(), 4, func(k *machine.Kernel) {
		r := k.GPU.Rank
		localCopy(k, out[r], int64(r)*shard, in[r], 0, shard)
		k.GridBarrier()
		if k.Block == 0 {
			for s := 0; s < n-1; s++ {
				cs := int64((r+n-s)%n) * shard // shard to forward
				ring[r].send.Put(k, cs, cs, shard, 0, 1)
				ring[r].send.Signal(k)
				ring[r].recv.Wait(k)
			}
			ring[r].send.Flush(k)
		}
		k.GridBarrier()
	}), nil
}

// ringEdge holds one rank's send endpoint and recv endpoint on a ring.
type ringEdge struct {
	send ringChannel
	recv ringChannel
}

// newPortRing builds the PortChannel ring r -> r+1 over all ranks, each
// edge binding src[r] on r to dst[r+1] on r+1 (and the reverse direction
// src[r+1] -> dst[r]). ring[r] holds r's endpoint towards r+1 and its
// endpoint from r-1.
func newPortRing(c *Comm, src, dst []*mem.Buffer) []ringEdge {
	n := c.Ranks()
	ring := make([]ringEdge, n)
	for r := 0; r < n; r++ {
		next := (r + 1) % n
		ring[r].send, ring[next].recv = c.C.NewPortChannelPairEx(r, next, src[r], dst[next], src[next], dst[r])
	}
	return ring
}

// AllGatherSwitch multicasts each shard through the NVSwitch (multimem.st):
// one store pass per rank, fanned out in-network.
type AllGatherSwitch struct{}

// Name implements Algorithm.
func (a *AllGatherSwitch) Name() string { return "mscclpp-AG-Switch" }

// Prepare implements Algorithm.
func (a *AllGatherSwitch) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := c.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	if !c.M.Fabric.HasSwitch() {
		return nil, fmt.Errorf("%s: %s has no switch-mapped I/O", a.Name(), c.M.Env.Name)
	}
	ranks := c.AllRanks()
	outChans := c.C.NewSwitchChannels(ranks, out)
	bar := newBarrier(c, ranks)
	nTB := min(max(int(shard/(256<<10)), 2), 16)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		// Stage my shard into my own out region, then multicast it.
		localCopy(k, out[r], int64(r)*shard, in[r], 0, shard)
		k.GridBarrier()
		outChans[r].Broadcast(k, int64(r)*shard, int64(r)*shard, shard, k.Block, k.NumBlocks)
		bar.gridSync(k, ranks)
	}), nil
}

// AllGatherHier is the hierarchical multi-node AllGather: cross-node
// all-pairs among same-local ranks (each rank gathers its column), then
// intra-node broadcast of the gathered columns.
type AllGatherHier struct{}

// Name implements Algorithm.
func (a *AllGatherHier) Name() string { return "mscclpp-AG-2PH" }

// Prepare implements Algorithm.
func (a *AllGatherHier) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	shard, err := c.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	if env.Nodes < 2 {
		return nil, fmt.Errorf("%s: multi-node only", a.Name())
	}
	g, nodes := env.GPUsPerNode, env.Nodes
	portCol := make([]*portMesh, g)
	for l := 0; l < g; l++ {
		portCol[l] = newPortMesh(c, c.ColumnRanks(l), out, out)
	}
	meshLocal := make([]*mesh, nodes)
	for node := 0; node < nodes; node++ {
		meshLocal[node] = newMesh(c, c.NodeRanks(node), out, out)
	}
	return NewExec(c, a.Name(), 4, func(k *machine.Kernel) {
		r := k.GPU.Rank
		node, l := r/g, r%g
		localRanks := c.NodeRanks(node)
		localPeers := PeersOf(localRanks, r)
		crossPeers := PeersOf(c.ColumnRanks(l), r)
		// Stage own shard.
		localCopy(k, out[r], int64(r)*shard, in[r], 0, shard)
		k.GridBarrier()
		// Cross-node: send my shard to all same-local peers.
		if k.Block == 0 {
			for _, p := range crossPeers {
				portCol[l].at(r, p).Put(k, int64(r)*shard, int64(r)*shard, shard, 0, 1)
				portCol[l].at(r, p).Signal(k)
			}
			for _, p := range crossPeers {
				portCol[l].at(r, p).Wait(k)
			}
		}
		k.GridBarrier()
		// Intra-node: broadcast my gathered column (shards of all
		// (n', l)) to local peers' outputs.
		for n2 := 0; n2 < nodes; n2++ {
			src := int64(n2*g+l) * shard
			for _, p := range localPeers {
				meshLocal[node].at(r, p).PutBuf(k, out[p], src, out[r], src,
					shard, k.Block, k.NumBlocks)
			}
		}
		meshLocal[node].gridSync(k, localRanks)
	}), nil
}
