// Package ncclsim is the NCCL/RCCL-style baseline library (paper Sections
// 2.2-2.3): collectives built from synchronous two-sided send/recv over
// staging buffers (package twosided), with ring and tree/chain algorithms,
// Simple and LL protocols, and multiple channels (thread blocks) per
// collective. On AMD-style meshes the per-channel rings use different xGMI
// links (stride rings), like RCCL.
//
// The library deliberately reproduces the baseline's structural costs — the
// extra FIFO copy per hop, per-chunk rendezvous, one hardcoded transfer mode
// per link — rather than being slowed down artificially.
//
// Like mscclsim, it shares the MSCCL++ library's kernel scaffold: every
// Prepare* checks its buffers with collective's validators
// (Comm.ValidateAllReduce, Comm.ValidateAllGather) and launches through
// collective.NewExec, the per-rank launch helper, so all three libraries
// are timed and validated alike.
package ncclsim

import (
	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// Library is one NCCL-like communicator.
type Library struct {
	C *collective.Comm
	// Channels is the number of parallel channels (thread blocks + rings);
	// NCCL_NCHANNELS. Default 12.
	Channels int
	// Chunk is the staging slot size (NCCL_BUFFSIZE/slots). Default 512 KiB.
	Chunk int64
}

// New returns a library over c.
func New(c *collective.Comm, channels int) *Library {
	if channels <= 0 {
		channels = 12
	}
	return &Library{C: c, Channels: channels, Chunk: 512 << 10}
}

// ringNext returns the successor of rank r on channel b's ring. Single-node
// mesh topologies rotate through coprime strides so different channels use
// different xGMI links (RCCL-style). Multi-node rings rotate the intra-node
// order per channel so each channel's node-crossing edge uses a different
// NIC (NCCL builds one ring per NIC).
func (l *Library) ringNext(r, b int) int {
	n := l.C.Ranks()
	env := l.C.M.Env
	if env.Nodes == 1 && env.IntraMesh {
		strides := []int{1, 3, 5, 7}
		s := strides[b%len(strides)]
		g := env.GPUsPerNode
		return (r + s) % g
	}
	if env.Nodes == 1 {
		return (r + 1) % n
	}
	// Multi-node: within a node, visit locals b, b+1, ..., b+g-1 (mod g);
	// the last local of each node hands off to local b of the next node.
	g := env.GPUsPerNode
	node, local := r/g, r%g
	pos := (local - b%g + g) % g
	if pos < g-1 {
		return node*g + (b+pos+1)%g
	}
	return ((node+1)%env.Nodes)*g + b%g
}

// ringEdges builds per-channel ring connections; edge[b][r] sends r -> next.
func (l *Library) ringEdges(proto twosided.Proto, chunk int64) [][]*twosided.Conn {
	n := l.C.Ranks()
	edges := make([][]*twosided.Conn, l.Channels)
	for b := 0; b < l.Channels; b++ {
		edges[b] = make([]*twosided.Conn, n)
		for r := 0; r < n; r++ {
			edges[b][r] = twosided.NewConn(l.C.M, r, l.ringNext(r, b),
				twosided.Config{Proto: proto, Chunk: chunk})
		}
	}
	return edges
}

// ringPrev returns the predecessor of r on channel b's ring.
func (l *Library) ringPrev(r, b int) int {
	n := l.C.Ranks()
	for p := 0; p < n; p++ {
		if l.ringNext(p, b) == r {
			return p
		}
	}
	panic("ncclsim: broken ring")
}

// window returns the i-th chunk-sized window of a region of length n.
func window(n, chunk int64, i int64) (off, ln int64) {
	off = i * chunk
	if off >= n {
		return n, 0
	}
	return off, min(n-off, chunk)
}

// PrepareAllReduceRing builds the classic ring AllReduce: a ReduceScatter
// pass followed by an AllGather pass, 2(N-1) synchronous hops per element,
// chunk-interleaved so neighbouring transfers pipeline.
func (l *Library) PrepareAllReduceRing(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	size, err := l.C.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	n := l.C.Ranks()
	chunk := l.Chunk
	if proto == twosided.ProtoLL {
		chunk = 16 << 10
	}
	nch := l.Channels
	if size/int64(nch) < 4096 {
		nch = min(int(size/4096)+1, l.Channels)
	}
	edges := l.ringEdges(proto, chunk)
	name := "nccl-Ring-" + proto.String()
	return collective.NewExec(l.C, name, nch, func(k *machine.Kernel) {
		r := k.GPU.Rank
		b := k.Block
		send := edges[b][r]
		recv := edges[b][l.ringPrev(r, b)]
		pOff, pSize := mem.Shard(size, b, nch)
		if pSize == 0 {
			return
		}
		// Working copy of this channel's part.
		k.LocalCopy(pSize, 1)
		in[r].CopyTo(out[r], pOff, pOff, pSize)
		// Ring indices follow ring positions, not rank numbers, so
		// stride rings stay correct.
		pos := ringPos(l, r, b)
		slice := func(i int) (int64, int64) {
			o, ln := mem.Shard(pSize, i, n)
			return pOff + o, ln
		}
		// ReduceScatter pass.
		for s := 0; s < n-1; s++ {
			csOff, csN := slice((pos + n - s) % n)
			crOff, crN := slice((pos + n - s - 1) % n)
			nw := (max(csN, crN) + chunk - 1) / chunk
			for i := int64(0); i < nw; i++ {
				so, sn := window(csN, chunk, i)
				ro, rn := window(crN, chunk, i)
				if sn > 0 {
					send.Send(k, out[r], csOff+so, sn)
				}
				if rn > 0 {
					recv.RecvReduce(k, out[r], crOff+ro, rn)
				}
			}
		}
		// AllGather pass: forward the owned slice around the ring.
		for s := 0; s < n-1; s++ {
			csOff, csN := slice((pos + 1 + n - s) % n)
			crOff, crN := slice((pos + n - s) % n)
			nw := (max(csN, crN) + chunk - 1) / chunk
			for i := int64(0); i < nw; i++ {
				so, sn := window(csN, chunk, i)
				ro, rn := window(crN, chunk, i)
				if sn > 0 {
					send.Send(k, out[r], csOff+so, sn)
				}
				if rn > 0 {
					recv.RecvCopy(k, out[r], crOff+ro, rn)
				}
			}
		}
	}), nil
}

// ringPos returns r's position along channel b's ring starting from rank 0.
func ringPos(l *Library, r, b int) int {
	pos := 0
	cur := 0
	for cur != r {
		cur = l.ringNext(cur, b)
		pos++
		if pos > l.C.Ranks() {
			panic("ncclsim: rank not on ring")
		}
	}
	return pos
}

// PrepareAllReduceTree builds the latency-oriented chain/tree AllReduce used
// for small multi-node messages: chain-reduce within each node to the local
// leader, chain-reduce across node leaders, then broadcast back down both
// levels.
func (l *Library) PrepareAllReduceTree(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	n := c.Ranks()
	env := c.M.Env
	g, nodes := env.GPUsPerNode, env.Nodes
	chunk := l.Chunk
	if proto == twosided.ProtoLL {
		chunk = 16 << 10
	}
	cfg := twosided.Config{Proto: proto, Chunk: chunk}
	// Reduce-phase conns (towards rank 0 of node 0) and broadcast-phase
	// conns (away from it).
	up := make([]*twosided.Conn, n)   // r -> its reduce parent
	down := make([]*twosided.Conn, n) // r -> its broadcast child source? indexed by receiver
	for r := 0; r < n; r++ {
		node, local := r/g, r%g
		if local > 0 {
			up[r] = twosided.NewConn(c.M, r, r-1, cfg)
		} else if node > 0 {
			up[r] = twosided.NewConn(c.M, r, (node-1)*g, cfg)
		}
	}
	for r := 0; r < n; r++ {
		node, local := r/g, r%g
		if local > 0 {
			down[r] = twosided.NewConn(c.M, r-1, r, cfg)
		} else if node > 0 {
			down[r] = twosided.NewConn(c.M, (node-1)*g, r, cfg)
		}
	}
	name := "nccl-Tree-" + proto.String()
	return collective.NewExec(c, name, 1, func(k *machine.Kernel) {
		r := k.GPU.Rank
		node, local := r/g, r%g
		k.LocalCopy(size, 1)
		in[r].CopyTo(out[r], 0, 0, size)
		// --- Reduce towards (0,0) ---
		if local < g-1 {
			up[r+1].RecvReduceBuffer(k, out[r], 0, size)
		}
		if local == 0 && node < nodes-1 {
			up[(node+1)*g].RecvReduceBuffer(k, out[r], 0, size)
		}
		if up[r] != nil {
			up[r].SendBuffer(k, out[r], 0, size)
		}
		// --- Broadcast back ---
		if down[r] != nil {
			down[r].RecvCopyBuffer(k, out[r], 0, size)
		}
		if local == 0 && node < nodes-1 {
			down[(node+1)*g].SendBuffer(k, out[r], 0, size)
		}
		if local < g-1 {
			down[r+1].SendBuffer(k, out[r], 0, size)
		}
	}), nil
}

// PrepareAllGatherRing builds the ring AllGather (NCCL's only AllGather
// algorithm): N-1 forwarding hops through staging buffers.
func (l *Library) PrepareAllGatherRing(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	shard, err := l.C.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	n := l.C.Ranks()
	chunk := l.Chunk
	if proto == twosided.ProtoLL {
		chunk = 16 << 10
	}
	nch := l.Channels
	if shard/int64(nch) < 4096 {
		nch = min(int(shard/4096)+1, l.Channels)
	}
	edges := l.ringEdges(proto, chunk)
	name := "nccl-AG-Ring-" + proto.String()
	return collective.NewExec(l.C, name, nch, func(k *machine.Kernel) {
		r := k.GPU.Rank
		b := k.Block
		send := edges[b][r]
		recv := edges[b][l.ringPrev(r, b)]
		pOff, pSize := mem.Shard(shard, b, nch)
		if pSize == 0 {
			return
		}
		k.LocalCopy(pSize, 1)
		in[r].CopyTo(out[r], int64(r)*shard+pOff, pOff, pSize)
		// Forward shards around the ring by ring position.
		prevRank := func(x, steps int) int {
			for ; steps > 0; steps-- {
				x = l.ringPrev(x, b)
			}
			return x
		}
		for s := 0; s < n-1; s++ {
			sRank := prevRank(r, s)   // shard to send this step
			rRank := prevRank(r, s+1) // shard arriving this step
			sOff := int64(sRank)*shard + pOff
			rOff := int64(rRank)*shard + pOff
			nw := (pSize + chunk - 1) / chunk
			for i := int64(0); i < nw; i++ {
				wo, wn := window(pSize, chunk, i)
				send.Send(k, out[r], sOff+wo, wn)
				recv.RecvCopy(k, out[r], rOff+wo, wn)
			}
		}
	}), nil
}
