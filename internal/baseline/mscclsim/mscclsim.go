// Package mscclsim is the MSCCL baseline library (paper Section 2.2):
// custom, topology-tuned communication algorithms — all-pairs and
// hierarchical patterns authored in the MSCCLang DSL — executed over NCCL's
// two-sided synchronous send/recv substrate. It captures the paper's gain
// breakdown: MSCCL beats NCCL through better algorithms, and MSCCL++ beats
// MSCCL through one-sided, zero-copy, asynchronous primitives.
//
// Like ncclsim, it shares the MSCCL++ library's kernel scaffold: every
// Prepare* checks its buffers with collective's validators
// (Comm.ValidateAllReduce, Comm.ValidateAllGather), launches through
// collective.NewExec, the per-rank launch helper, and takes its rank groups
// (Comm.AllRanks, NodeRanks, ColumnRanks, PeersOf) and thread-block shards
// (mem.Shard) from the same helpers as the MSCCL++ algorithms.
package mscclsim

import (
	"fmt"

	"mscclpp/internal/baseline/twosided"
	"mscclpp/internal/collective"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// Library is one MSCCL-like communicator.
type Library struct {
	C *collective.Comm
	// Channels bounds thread-block parallelism for bulk algorithms.
	Channels int
}

// New returns a library over c.
func New(c *collective.Comm, channels int) *Library {
	if channels <= 0 {
		channels = 12
	}
	return &Library{C: c, Channels: channels}
}

// pairConns builds directed conns among every ordered pair in ranks.
func (l *Library) pairConns(ranks []int, cfg twosided.Config) map[int]map[int]*twosided.Conn {
	conns := make(map[int]map[int]*twosided.Conn)
	for _, a := range ranks {
		conns[a] = make(map[int]*twosided.Conn)
	}
	for _, a := range ranks {
		for _, b := range ranks {
			if a != b {
				conns[a][b] = twosided.NewConn(l.C.M, a, b, cfg)
			}
		}
	}
	return conns
}

// tbCount picks the per-collective thread-block (channel) parallelism.
func (l *Library) tbCount(bytesPerLeg int64) int {
	return min(max(int(bytesPerLeg/(256<<10)), 1), l.Channels, 8)
}

// xferSpec describes one leg of a chunk-interleaved all-pairs exchange.
type xferSpec struct {
	conn   *twosided.Conn
	buf    *mem.Buffer
	off    int64
	reduce bool // receive legs: reduce instead of copy
}

// runExchange interleaves sends and receives chunk by chunk so that slot
// backpressure never deadlocks (MSCCL executes send and recv legs on
// separate thread blocks; interleaving models the same progress guarantee).
// All legs cover `length` bytes.
func runExchange(k *machine.Kernel, length, chunk int64, sends, recvs []xferSpec) {
	for wo := int64(0); wo < length; wo += chunk {
		wn := min(length-wo, chunk)
		for _, s := range sends {
			s.conn.Send(k, s.buf, s.off+wo, wn)
		}
		for _, r := range recvs {
			if r.reduce {
				r.conn.RecvReduce(k, r.buf, r.off+wo, wn)
			} else {
				r.conn.RecvCopy(k, r.buf, r.off+wo, wn)
			}
		}
	}
}

// PrepareAllReduceAllPairs1P is MSCCL's one-phase all-pairs AllReduce for
// small messages: every rank LL-sends its whole input to every peer, which
// reduces all arrivals — the same algorithm as MSCCL++'s 1PA but over
// two-sided primitives with staging copies.
func (l *Library) PrepareAllReduceAllPairs1P(in, out []*mem.Buffer) (*collective.Exec, error) {
	c := l.C
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl 1P: single-node only")
	}
	ranks := c.AllRanks()
	conns := l.pairConns(ranks, twosided.Config{Proto: twosided.ProtoLL, Chunk: 64 << 10, Slots: 16})
	name := "msccl-AllPairs1P-LL"
	return collective.NewExec(c, name, 1, func(k *machine.Kernel) {
		r := k.GPU.Rank
		k.LocalCopy(size, 1)
		in[r].CopyTo(out[r], 0, 0, size)
		var sends, recvs []xferSpec
		for _, p := range collective.PeersOf(ranks, r) {
			sends = append(sends, xferSpec{conns[r][p], in[r], 0, false})
			recvs = append(recvs, xferSpec{conns[p][r], out[r], 0, true})
		}
		runExchange(k, size, conns[r][collective.PeersOf(ranks, r)[0]].Chunk(), sends, recvs)
	}), nil
}

// PrepareAllReduceAllPairs2P is MSCCL's two-phase all-pairs AllReduce
// (ReduceScatter + AllGather) for medium messages.
func (l *Library) PrepareAllReduceAllPairs2P(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl 2P: single-node only")
	}
	slice := size / int64(c.Ranks())
	ranks := c.AllRanks()
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	nTB := l.tbCount(slice)
	connsRS := make([]map[int]map[int]*twosided.Conn, nTB)
	connsAG := make([]map[int]map[int]*twosided.Conn, nTB)
	for b := 0; b < nTB; b++ {
		connsRS[b] = l.pairConns(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
		connsAG[b] = l.pairConns(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
	}
	name := "msccl-AllPairs2P-" + proto.String()
	return collective.NewExec(c, name, nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		b := k.Block
		off, ln := mem.Shard(slice, b, k.NumBlocks)
		if ln == 0 {
			return
		}
		mySlice := int64(r)*slice + off
		k.LocalCopy(ln, 1)
		in[r].CopyTo(out[r], mySlice, mySlice, ln)
		// Phase 1: scatter slices; reduce arrivals into my slice.
		var sends, recvs []xferSpec
		for _, p := range collective.PeersOf(ranks, r) {
			sends = append(sends, xferSpec{connsRS[b][r][p], in[r], int64(p)*slice + off, false})
			recvs = append(recvs, xferSpec{connsRS[b][p][r], out[r], mySlice, true})
		}
		runExchange(k, ln, chunk, sends, recvs)
		// Phase 2: broadcast my reduced slice; copy arrivals.
		sends, recvs = nil, nil
		for _, p := range collective.PeersOf(ranks, r) {
			sends = append(sends, xferSpec{connsAG[b][r][p], out[r], mySlice, false})
			recvs = append(recvs, xferSpec{connsAG[b][p][r], out[r], int64(p)*slice + off, false})
		}
		runExchange(k, ln, chunk, sends, recvs)
	}), nil
}

// PrepareAllReduceHier is MSCCL's hierarchical (2PH-style) AllReduce for
// multi-node messages: intra-node all-pairs ReduceScatter, cross-node
// all-pairs exchange among same-local ranks, intra-node AllGather.
func (l *Library) PrepareAllReduceHier(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	env := c.M.Env
	if env.Nodes < 2 {
		return nil, fmt.Errorf("msccl hier: multi-node only")
	}
	g, nodes := env.GPUsPerNode, env.Nodes
	sg := size / int64(g)
	sgm := sg / int64(nodes)
	if sgm == 0 || sgm%4 != 0 {
		return nil, fmt.Errorf("msccl hier: size %d too small", size)
	}
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	cfg := twosided.Config{Proto: proto, Chunk: chunk, Slots: 16}
	nTB := l.tbCount(sg)
	intra := make([][]map[int]map[int]*twosided.Conn, nTB)
	intraAG := make([][]map[int]map[int]*twosided.Conn, nTB)
	colRS := make([][]map[int]map[int]*twosided.Conn, nTB)
	colAG := make([][]map[int]map[int]*twosided.Conn, nTB)
	for b := 0; b < nTB; b++ {
		intra[b] = make([]map[int]map[int]*twosided.Conn, nodes)
		intraAG[b] = make([]map[int]map[int]*twosided.Conn, nodes)
		for node := 0; node < nodes; node++ {
			rs := c.NodeRanks(node)
			intra[b][node] = l.pairConns(rs, cfg)
			intraAG[b][node] = l.pairConns(rs, cfg)
		}
		colRS[b] = make([]map[int]map[int]*twosided.Conn, g)
		colAG[b] = make([]map[int]map[int]*twosided.Conn, g)
		for lidx := 0; lidx < g; lidx++ {
			rs := c.ColumnRanks(lidx)
			colRS[b][lidx] = l.pairConns(rs, cfg)
			colAG[b][lidx] = l.pairConns(rs, cfg)
		}
	}
	name := "msccl-Hier-" + proto.String()
	return collective.NewExec(c, name, nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		node, lidx := r/g, r%g
		b := k.Block
		sOff, sLen := mem.Shard(sg, b, k.NumBlocks)
		if sLen == 0 {
			return
		}
		// Per-TB sub-slice shards (aligned so cross-node sub-slice
		// shards stay within the TB's region).
		mOff, mLen := mem.Shard(sgm, b, k.NumBlocks)
		sliceOff := int64(lidx)*sg + sOff
		localPeers := collective.PeersOf(c.NodeRanks(node), r)
		crossPeers := collective.PeersOf(c.ColumnRanks(lidx), r)
		k.LocalCopy(sLen, 1)
		in[r].CopyTo(out[r], sliceOff, sliceOff, sLen)
		// Intra-node ReduceScatter of slice lidx.
		var sends, recvs []xferSpec
		for _, p := range localPeers {
			sends = append(sends, xferSpec{intra[b][node][r][p], in[r], int64(p%g)*sg + sOff, false})
			recvs = append(recvs, xferSpec{intra[b][node][p][r], out[r], sliceOff, true})
		}
		runExchange(k, sLen, chunk, sends, recvs)
		// TB shards of the slice and of the sub-slice differ, so
		// phases must synchronize across thread blocks.
		k.GridBarrier()
		// Cross-node exchange of sub-slices, all-pairs.
		myOff := int64(lidx)*sg + int64(node)*sgm + mOff
		sends, recvs = nil, nil
		for _, p := range crossPeers {
			sends = append(sends, xferSpec{colRS[b][lidx][r][p], out[r],
				int64(lidx)*sg + int64(p/g)*sgm + mOff, false})
			recvs = append(recvs, xferSpec{colRS[b][lidx][p][r], out[r], myOff, true})
		}
		runExchange(k, mLen, chunk, sends, recvs)
		k.GridBarrier()
		// Cross-node AllGather of finished sub-slices.
		sends, recvs = nil, nil
		for _, p := range crossPeers {
			sends = append(sends, xferSpec{colAG[b][lidx][r][p], out[r], myOff, false})
			recvs = append(recvs, xferSpec{colAG[b][lidx][p][r], out[r],
				int64(lidx)*sg + int64(p/g)*sgm + mOff, false})
		}
		runExchange(k, mLen, chunk, sends, recvs)
		k.GridBarrier()
		// Intra-node AllGather of slice lidx.
		sends, recvs = nil, nil
		for _, p := range localPeers {
			sends = append(sends, xferSpec{intraAG[b][node][r][p], out[r], sliceOff, false})
			recvs = append(recvs, xferSpec{intraAG[b][node][p][r], out[r], int64(p%g)*sg + sOff, false})
		}
		runExchange(k, sLen, chunk, sends, recvs)
	}), nil
}

// PrepareAllGatherAllPairs is MSCCL's all-pairs AllGather.
func (l *Library) PrepareAllGatherAllPairs(in, out []*mem.Buffer, proto twosided.Proto) (*collective.Exec, error) {
	c := l.C
	shard, err := c.ValidateAllGather(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("msccl AG: single-node only")
	}
	ranks := c.AllRanks()
	chunk := int64(128 << 10)
	if proto == twosided.ProtoLL {
		chunk = 32 << 10
	}
	conns := l.pairConns(ranks, twosided.Config{Proto: proto, Chunk: chunk, Slots: 16})
	name := "msccl-AG-AllPairs-" + proto.String()
	return collective.NewExec(c, name, 1, func(k *machine.Kernel) {
		r := k.GPU.Rank
		k.LocalCopy(shard, 1)
		in[r].CopyTo(out[r], int64(r)*shard, 0, shard)
		var sends, recvs []xferSpec
		for _, p := range collective.PeersOf(ranks, r) {
			sends = append(sends, xferSpec{conns[r][p], in[r], 0, false})
			recvs = append(recvs, xferSpec{conns[p][r], out[r], int64(p) * shard, false})
		}
		runExchange(k, shard, chunk, sends, recvs)
	}), nil
}
