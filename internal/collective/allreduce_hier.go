package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce2PHLL is the hierarchical AllReduce for small multi-node messages
// (paper §6.4, first variant): a node-local LL ReduceScatter that splits the
// data only into the number of local GPUs, a one-phase all-pairs exchange
// across nodes over PortChannels (redundant reduction, but fewer
// synchronization steps), and a node-local LL AllGather. The local collective
// is pipelined with cross-node communication by issuing the asynchronous
// port puts as soon as each slice is ready.
type AllReduce2PHLL struct{}

// Name implements Algorithm.
func (a *AllReduce2PHLL) Name() string { return "mscclpp-2PH-LL" }

// Prepare implements Algorithm.
func (a *AllReduce2PHLL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	if env.Nodes < 2 {
		return nil, fmt.Errorf("%s: multi-node only", a.Name())
	}
	g, nodes := env.GPUsPerNode, env.Nodes
	sg := size / int64(g) // per-local-rank slice
	if sg%4 != 0 {
		return nil, fmt.Errorf("%s: slice %d not aligned", a.Name(), sg)
	}

	// Scratch: phase A packets (slot per local sender), phase B cross-node
	// partials (slot per node), phase C packets (slot per local sender).
	scrA := c.alloc("2phll.scrA", sg*int64(g))
	scrB := c.alloc("2phll.scrB", sg*int64(nodes))
	scrC := c.alloc("2phll.scrC", sg*int64(g))
	// Intra-node meshes per node; cross-node port meshes per local index.
	meshA := make([]*mesh, nodes)
	meshC := make([]*mesh, nodes)
	for node := 0; node < nodes; node++ {
		meshA[node] = newMesh(c, c.NodeRanks(node), in, scrA)
		meshC[node] = newMesh(c, c.NodeRanks(node), out, scrC)
	}
	portB := make([]*portMesh, g)
	for l := 0; l < g; l++ {
		portB[l] = newPortMesh(c, c.ColumnRanks(l), out, scrB)
	}

	nTB := 1
	if size > 256<<10 {
		nTB = 4
	}
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		node, l := r/g, r%g
		flagA, flagC := 2*k.Inv, 2*k.Inv+1
		sliceOff := int64(l) * sg
		localPeers := PeersOf(c.NodeRanks(node), r)
		crossPeers := PeersOf(c.ColumnRanks(l), r)
		// Phase A: local LL ReduceScatter. Send slice l' of my input
		// to local peer (node, l'), tagged with my local index.
		for _, p := range localPeers {
			meshA[node].at(r, p).PutPacketsBuf(k, scrA[p], int64(l)*sg,
				in[r], int64(p%g)*sg, sg, k.Block, k.NumBlocks, flagA)
		}
		localCopy(k, out[r], sliceOff, in[r], sliceOff, sg)
		for _, p := range localPeers {
			meshA[node].at(r, p).AwaitPackets(k, flagA, uint64(sg))
			localReduce(k, out[r], sliceOff, scrA[r], int64(p%g)*sg, sg)
		}
		k.GridBarrier()
		// Phase B: one-phase all-pairs across nodes (port channels;
		// each rank reduces all node partials redundantly).
		if k.Block == 0 {
			for _, p := range crossPeers {
				portB[l].at(r, p).Put(k, int64(node)*sg, sliceOff, sg, 0, 1)
				portB[l].at(r, p).Signal(k)
			}
		}
		k.GridBarrier()
		for _, p := range crossPeers {
			if k.Block == 0 {
				portB[l].at(r, p).Wait(k)
			}
			k.GridBarrier()
			localReduce(k, out[r], sliceOff, scrB[r], int64(p/g)*sg, sg)
			k.GridBarrier()
		}
		// Phase C: local LL AllGather of the finished slice.
		for _, p := range localPeers {
			meshC[node].at(r, p).PutPacketsBuf(k, scrC[p], int64(l)*sg,
				out[r], sliceOff, sg, k.Block, k.NumBlocks, flagC)
		}
		for _, p := range localPeers {
			meshC[node].at(r, p).AwaitPackets(k, flagC, uint64(sg))
			localCopy(k, out[r], int64(p%g)*sg, scrC[r], int64(p%g)*sg, sg)
		}
	}), nil
}

// AllReduce2PHHB is the hierarchical AllReduce for large multi-node messages
// (paper §6.4, second variant): intra-node ReduceScatter pipelined with
// minimal cross-node all-pairs ReduceScatter/AllGather over PortChannels,
// then intra-node AllGather. Data is split into GPUsPerNode slices and each
// slice into Nodes sub-slices, so cross-node traffic is the minimum
// 2*(M-1)*S/N per NIC.
type AllReduce2PHHB struct{}

// Name implements Algorithm.
func (a *AllReduce2PHHB) Name() string { return "mscclpp-2PH-HB" }

// Prepare implements Algorithm.
func (a *AllReduce2PHHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	if env.Nodes < 2 {
		return nil, fmt.Errorf("%s: multi-node only", a.Name())
	}
	g, nodes := env.GPUsPerNode, env.Nodes
	sg := size / int64(g)    // per-local-rank slice
	sgm := sg / int64(nodes) // per-node sub-slice
	if sgm%4 != 0 || sgm == 0 {
		return nil, fmt.Errorf("%s: sub-slice %d not usable", a.Name(), sgm)
	}

	// Cross-node RS scratch: slot per sender node.
	scrRS := c.alloc("2phhb.scr", sgm*int64(nodes))
	meshIntra := make([]*mesh, nodes)
	for node := 0; node < nodes; node++ {
		meshIntra[node] = newMesh(c, c.NodeRanks(node), in, in)
	}
	portRS := make([]*portMesh, g)
	portAG := make([]*portMesh, g)
	for l := 0; l < g; l++ {
		portRS[l] = newPortMesh(c, c.ColumnRanks(l), out, scrRS)
		portAG[l] = newPortMesh(c, c.ColumnRanks(l), out, out)
	}
	nTB := min(max(int(size/(2<<20)), 4), 16)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		node, l := r/g, r%g
		sliceOff := int64(l) * sg
		localRanks := c.NodeRanks(node)
		localPeers := PeersOf(localRanks, r)
		crossPeers := PeersOf(c.ColumnRanks(l), r)
		// Phase A: per sub-slice, intra-node pull-ReduceScatter,
		// then immediately ship the sub-slice to its owner node
		// (asynchronous put overlaps the next sub-slice's pull).
		for sub := 0; sub < nodes; sub++ {
			off := sliceOff + int64(sub)*sgm
			localCopy(k, out[r], off, in[r], off, sgm)
			for _, p := range localPeers {
				meshIntra[node].at(r, p).ReduceBuf(k, out[r], off,
					in[p], off, sgm, k.Block, k.NumBlocks)
			}
			k.GridBarrier()
			if sub != node && k.Block == 0 {
				owner := sub*g + l
				portRS[l].at(r, owner).Put(k, int64(node)*sgm, off, sgm, 0, 1)
				portRS[l].at(r, owner).Signal(k)
			}
		}
		// Phase B: reduce the other nodes' contributions to my
		// sub-slice as they arrive.
		myOff := sliceOff + int64(node)*sgm
		for _, p := range crossPeers {
			if k.Block == 0 {
				portRS[l].at(r, p).Wait(k)
			}
			k.GridBarrier()
			localReduce(k, out[r], myOff, scrRS[r], int64(p/g)*sgm, sgm)
			k.GridBarrier()
		}
		// Phase C: cross-node AllGather of my finished sub-slice,
		// zero-copy into peers' outputs.
		if k.Block == 0 {
			for _, p := range crossPeers {
				portAG[l].at(r, p).Put(k, myOff, myOff, sgm, 0, 1)
				portAG[l].at(r, p).Signal(k)
			}
			for _, p := range crossPeers {
				portAG[l].at(r, p).Wait(k)
			}
		}
		k.GridBarrier()
		// Phase D: intra-node AllGather of the full slice l.
		for _, p := range localPeers {
			meshIntra[node].at(r, p).PutBuf(k, out[p], sliceOff,
				out[r], sliceOff, sg, k.Block, k.NumBlocks)
		}
		meshIntra[node].gridSync(k, localRanks)
	}), nil
}
