package collective

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce2PR is the two-phase ring AllReduce (paper §6.3 and Figure 6):
// a pipelined ring ReduceScatter whose local reduction overlaps the DMA-copy
// of the next half-chunk, followed by a ring AllGather over the same ring.
// Unlike NCCL, the ring runs over PortChannel (DMA engines) even within a
// node, freeing the SMs during transfers; it delivers the best intra-node
// throughput at very large message sizes.
type AllReduce2PR struct {
	// UseMemoryChannel switches the transport to thread-copy MemoryChannel
	// (for the PortChannel-vs-MemoryChannel ablation, paper §7.1).
	UseMemoryChannel bool
}

// Name implements Algorithm.
func (a *AllReduce2PR) Name() string {
	if a.UseMemoryChannel {
		return "mscclpp-2PR-Memory"
	}
	return "mscclpp-2PR-Port"
}

// ringChannel is the sender-side transport of one ring edge.
type ringChannel interface {
	Put(k *machine.Kernel, dstOff, srcOff, size int64, tb, nTB int)
	Signal(k *machine.Kernel)
	Wait(k *machine.Kernel)
	Flush(k *machine.Kernel)
}

// Prepare implements Algorithm.
func (a *AllReduce2PR) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only (2PH covers multi-node)", a.Name())
	}
	n := c.Ranks()
	if n < 2 {
		return nil, fmt.Errorf("%s: need at least 2 ranks", a.Name())
	}
	chunk := size / int64(n)
	half := chunk / 2
	if half%4 != 0 {
		return nil, fmt.Errorf("%s: half-chunk %d not 4-byte aligned", a.Name(), half)
	}
	// Scratch receives in-flight chunks during ReduceScatter.
	scr := c.alloc("2pr.scr", size)
	// Ring edges r -> r+1: RS set (out->scr) and AG set (out->out).
	rsSend := make([]ringChannel, n) // rank r's channel to next
	rsRecv := make([]ringChannel, n) // rank r's endpoint from prev
	agSend := make([]ringChannel, n)
	agRecv := make([]ringChannel, n)
	for r := 0; r < n; r++ {
		next := (r + 1) % n
		if a.UseMemoryChannel {
			s, d := c.C.NewMemoryChannelPairEx(r, next, out[r], scr[next], out[next], scr[r])
			rsSend[r], rsRecv[next] = s, d
			s2, d2 := c.C.NewMemoryChannelPairEx(r, next, out[r], out[next], out[next], out[r])
			agSend[r], agRecv[next] = s2, d2
		} else {
			s, d := c.C.NewPortChannelPairEx(r, next, out[r], scr[next], out[next], scr[r])
			rsSend[r], rsRecv[next] = s, d
			s2, d2 := c.C.NewPortChannelPairEx(r, next, out[r], out[next], out[next], out[r])
			agSend[r], agRecv[next] = s2, d2
		}
	}
	nTB := min(max(int(size/(1<<20)), 4), 16)
	// putSig issues a signalled transfer on the chosen transport: the
	// PortChannel path enqueues asynchronously from block 0 (the GPU stays
	// free to reduce — the Figure 6 overlap); the MemoryChannel path copies
	// with all thread blocks and signals after a grid barrier. Both paths
	// keep per-block barrier counts identical.
	putSig := func(k *machine.Kernel, ch ringChannel, off, sz int64) {
		if a.UseMemoryChannel {
			ch.Put(k, off, off, sz, k.Block, k.NumBlocks)
			k.GridBarrier()
			if k.Block == 0 {
				ch.Signal(k)
			}
		} else if k.Block == 0 {
			ch.Put(k, off, off, sz, 0, 1)
			ch.Signal(k)
		}
	}
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		send, recv := rsSend[r], rsRecv[r]
		// Working copy: out starts as input.
		localCopy(k, out[r], 0, in[r], 0, size)
		k.GridBarrier()
		// --- Phase 1: ring ReduceScatter, half-chunk pipelined ---
		// Step s sends chunk (r-s) and receives chunk (r-s-1); the
		// received chunk is reduced in halves, the first half's
		// reduction overlapping the second half's transfer.
		for s := 0; s < n-1; s++ {
			cs := int64((r+n-s)%n) * chunk   // chunk to send
			cr := int64((r+n-s-1)%n) * chunk // chunk arriving
			putSig(k, send, cs, half)
			putSig(k, send, cs+half, chunk-half)
			if k.Block == 0 {
				recv.Wait(k) // first half of incoming chunk
			}
			k.GridBarrier()
			// Reduce first half while second half is in flight.
			localReduce(k, out[r], cr, scr[r], cr, half)
			k.GridBarrier()
			if k.Block == 0 {
				recv.Wait(k) // second half
			}
			k.GridBarrier()
			localReduce(k, out[r], cr+half, scr[r], cr+half, chunk-half)
			k.GridBarrier()
			if k.Block == 0 && !a.UseMemoryChannel {
				send.Flush(k)
			}
		}
		// Rank r now owns chunk (r+1)%n fully reduced.
		// --- Phase 2: ring AllGather, zero-copy into out ---
		aSend, aRecv := agSend[r], agRecv[r]
		for s := 0; s < n-1; s++ {
			cs := int64((r+1+n-s)%n) * chunk // chunk to forward
			putSig(k, aSend, cs, chunk)
			if k.Block == 0 {
				aRecv.Wait(k)
			}
			k.GridBarrier()
		}
		if k.Block == 0 && !a.UseMemoryChannel {
			aSend.Flush(k)
		}
		k.GridBarrier()
	}), nil
}

var _ ringChannel = (*core.PortChannel)(nil)
var _ ringChannel = (*core.MemoryChannel)(nil)
