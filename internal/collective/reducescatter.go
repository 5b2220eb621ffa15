package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// validateReduceScatterBufs checks NCCL conventions: in[r] holds S bytes,
// out[r] holds rank r's reduced S/N-byte slice.
func validateReduceScatterBufs(c *Comm, in, out []*mem.Buffer) (slice int64, err error) {
	total, err := validateEqualSized(c, in, "input")
	if err != nil {
		return 0, err
	}
	slice, err = validateEqualSized(c, out, "output")
	if err != nil {
		return 0, err
	}
	if total != slice*int64(c.Ranks()) {
		return 0, fmt.Errorf("collective: reducescatter in %d != slice %d * ranks %d",
			total, slice, c.Ranks())
	}
	if slice%4 != 0 || slice == 0 {
		return 0, fmt.Errorf("collective: reducescatter slice %d not usable", slice)
	}
	return slice, nil
}

// ReduceScatterAllPairsLL scatters with the LL protocol: every rank
// packet-puts slice p of its input to rank p, which reduces arrivals.
type ReduceScatterAllPairsLL struct{}

// Name implements Algorithm.
func (a *ReduceScatterAllPairsLL) Name() string { return "mscclpp-RS-AllPairs-LL" }

// Prepare implements Algorithm.
func (a *ReduceScatterAllPairsLL) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	slice, err := validateReduceScatterBufs(c, in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	scratch := c.alloc("rsll.scratch", slice*int64(len(ranks)))
	m := newMesh(c, ranks, in, scratch)
	nTB := min(int(slice/(16<<10))+1, 4)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).PutPacketsBuf(k, scratch[p], int64(r)*slice,
				in[r], int64(p)*slice, slice, k.Block, k.NumBlocks, k.Inv)
		}
		localCopy(k, out[r], 0, in[r], int64(r)*slice, slice)
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).AwaitPackets(k, k.Inv, uint64(slice))
			localReduce(k, out[r], 0, scratch[r], int64(p)*slice, slice)
		}
	}), nil
}

// ReduceScatterAllPairsHB scatters by pulling: every rank's thread groups
// read-reduce its slice from all peers' inputs concurrently, with no
// synchronization at all (inputs are stable during the collective).
type ReduceScatterAllPairsHB struct{}

// Name implements Algorithm.
func (a *ReduceScatterAllPairsHB) Name() string { return "mscclpp-RS-AllPairs-HB" }

// Prepare implements Algorithm.
func (a *ReduceScatterAllPairsHB) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	slice, err := validateReduceScatterBufs(c, in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	ranks := c.AllRanks()
	m := newMesh(c, ranks, in, in)
	nTB := min(max(int(slice/(128<<10)), 4), 24)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		localCopy(k, out[r], 0, in[r], int64(r)*slice, slice)
		for _, p := range PeersOf(ranks, r) {
			m.at(r, p).ReduceBuf(k, out[r], 0, in[p], int64(r)*slice,
				slice, k.Block, k.NumBlocks)
		}
	}), nil
}

// ReduceScatterRing is the pipelined ring ReduceScatter of paper Figure 6,
// with half-chunk reduction overlapped with the next half's DMA transfer.
// Output convention differs from the AllReduce-internal ring: out[r] gets
// slice r.
type ReduceScatterRing struct{}

// Name implements Algorithm.
func (a *ReduceScatterRing) Name() string { return "mscclpp-RS-Ring-Port" }

// Prepare implements Algorithm.
func (a *ReduceScatterRing) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	slice, err := validateReduceScatterBufs(c, in, out)
	if err != nil {
		return nil, err
	}
	if c.M.Env.Nodes != 1 {
		return nil, fmt.Errorf("%s: single-node only", a.Name())
	}
	n := c.Ranks()
	if n < 2 {
		return nil, fmt.Errorf("%s: need at least 2 ranks", a.Name())
	}
	half := slice / 2
	if half%4 != 0 {
		return nil, fmt.Errorf("%s: half-slice %d not aligned", a.Name(), half)
	}
	// work[r] accumulates (copy of input); scr receives in-flight chunks.
	work := c.alloc("rsring.work", slice*int64(n))
	scr := c.alloc("rsring.scr", slice*int64(n))
	ring := newPortRing(c, work, scr)
	return NewExec(c, a.Name(), 4, func(k *machine.Kernel) {
		r := k.GPU.Rank
		localCopy(k, work[r], 0, in[r], 0, slice*int64(n))
		k.GridBarrier()
		send, recv := ring[r].send, ring[r].recv
		// Ring steps: after n-1 steps rank r owns chunk (r+1)%n; the
		// ring is oriented so that one final hop is avoided by
		// defining ownership accordingly, then the owned chunk is
		// copied to out.
		for s := 0; s < n-1; s++ {
			cs := int64((r+n-s)%n) * slice
			cr := int64((r+n-s-1)%n) * slice
			if k.Block == 0 {
				send.Put(k, cs, cs, half, 0, 1)
				send.Signal(k)
				send.Put(k, cs+half, cs+half, slice-half, 0, 1)
				send.Signal(k)
				recv.Wait(k)
			}
			k.GridBarrier()
			localReduce(k, work[r], cr, scr[r], cr, half)
			k.GridBarrier()
			if k.Block == 0 {
				recv.Wait(k)
			}
			k.GridBarrier()
			localReduce(k, work[r], cr+half, scr[r], cr+half, slice-half)
			k.GridBarrier()
			if k.Block == 0 {
				send.Flush(k)
			}
		}
		// Rank r owns chunk (r+1)%n. The API promises slice r in
		// out[r], so rank (r-1) holds slice r... each rank therefore
		// forwards its owned chunk to the owner-by-convention.
		owned := int64((r+1)%n) * slice
		k.GridBarrier()
		if k.Block == 0 {
			// One extra hop delivers the owned chunk to its
			// conventional owner (the next rank in the ring).
			send.Put(k, owned, owned, slice, 0, 1)
			send.Signal(k)
			recv.Wait(k)
			send.Flush(k)
		}
		k.GridBarrier()
		// My slice arrived in scr; publish to out.
		localCopy(k, out[r], 0, scr[r], int64(r)*slice, slice)
	}), nil
}
