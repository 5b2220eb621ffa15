package collective

import (
	"fmt"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
)

// BroadcastFlat is the single-node Broadcast: the root writes the buffer
// directly into every peer's output with sharded thread-copy puts and one
// signal round — zero-copy and single-step, in contrast to send/recv chains.
type BroadcastFlat struct {
	Root int
}

// Name implements Algorithm.
func (a *BroadcastFlat) Name() string { return "mscclpp-Broadcast-Flat" }

// Prepare implements Algorithm. in[root] is the source; out[r] receives the
// buffer on every rank (in[r] for r != root is ignored, as in NCCL when
// sendbuff==recvbuff conventions are not used).
func (a *BroadcastFlat) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	root := a.Root
	size, err := validateBroadcast(c, a.Name(), in, out, root, false)
	if err != nil {
		return nil, err
	}
	ranks := c.AllRanks()
	m := newMesh(c, ranks, in, out)
	return NewExec(c, a.Name(), broadcastTB(size), func(k *machine.Kernel) {
		r := k.GPU.Rank
		if r == root {
			peers := PeersOf(ranks, r)
			for _, p := range peers {
				m.at(r, p).Put(k, 0, 0, size, k.Block, k.NumBlocks)
			}
			localCopy(k, out[r], 0, in[r], 0, size)
			k.GridBarrier()
			if k.Block == 0 {
				m.signalAll(k, peers)
			}
		} else if k.Block == 0 {
			m.at(r, root).Wait(k)
		}
		k.GridBarrier()
	}), nil
}

// BroadcastSwitch multicasts the root's buffer through the NVSwitch in a
// single multimem.st pass (H100).
type BroadcastSwitch struct {
	Root int
}

// Name implements Algorithm.
func (a *BroadcastSwitch) Name() string { return "mscclpp-Broadcast-Switch" }

// Prepare implements Algorithm.
func (a *BroadcastSwitch) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	root := a.Root
	size, err := validateBroadcast(c, a.Name(), in, out, root, true)
	if err != nil {
		return nil, err
	}
	ranks := c.AllRanks()
	outChans := c.C.NewSwitchChannels(ranks, out)
	bar := newBarrier(c, ranks)
	return NewExec(c, a.Name(), broadcastTB(size), func(k *machine.Kernel) {
		r := k.GPU.Rank
		if r == root {
			outChans[r].BroadcastFrom(k, in[r], 0, 0, size, k.Block, k.NumBlocks)
		}
		bar.gridSync(k, ranks)
	}), nil
}

// validateBroadcast checks a Broadcast's buffers (the AllReduce convention),
// a single-node machine with switch-mapped I/O if needSwitch, and a root in
// range, and returns the size in bytes.
func validateBroadcast(c *Comm, name string, in, out []*mem.Buffer, root int, needSwitch bool) (int64, error) {
	size, err := c.ValidateAllReduce(in, out)
	if err != nil {
		return 0, err
	}
	if c.M.Env.Nodes != 1 {
		return 0, fmt.Errorf("%s: single-node only", name)
	}
	if needSwitch && !c.M.Fabric.HasSwitch() {
		return 0, fmt.Errorf("%s: %s has no switch-mapped I/O", name, c.M.Env.Name)
	}
	if root < 0 || root >= c.Ranks() {
		return 0, fmt.Errorf("%s: root %d out of range", name, root)
	}
	return size, nil
}

// broadcastTB derives a Broadcast's thread-block count from its size.
func broadcastTB(size int64) int { return min(max(int(size/(256<<10)), 2), 24) }

// Broadcast is the one-call Collective API for Broadcast from root.
func (c *Comm) Broadcast(in, out []*mem.Buffer, root int) (sim.Duration, error) {
	var algo Algorithm
	if c.M.Env.Nodes == 1 && c.M.Env.HasMulticast && in[0].Size() >= 1<<20 {
		algo = &BroadcastSwitch{Root: root}
	} else {
		algo = &BroadcastFlat{Root: root}
	}
	ex, err := algo.Prepare(c, in, out)
	if err != nil {
		return 0, err
	}
	return c.Run(ex)
}
