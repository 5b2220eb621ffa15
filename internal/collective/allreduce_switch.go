package collective

import (
	"fmt"

	"mscclpp/internal/core"
	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
)

// AllReduce2PASwitch is the SwitchChannel AllReduce for NVSwitch-SHARP
// machines (paper §4.3, §7.2): each rank runs the fused
// multimem.ld_reduce + multimem.st loop over its 1/N slice — the switch
// aggregates inputs in-network and multicasts results — bracketed by rank
// barriers. This is the "15 lines of Python" kernel.
type AllReduce2PASwitch struct{}

// Name implements Algorithm.
func (a *AllReduce2PASwitch) Name() string { return "mscclpp-2PA-Switch" }

// Prepare implements Algorithm.
func (a *AllReduce2PASwitch) Prepare(c *Comm, in, out []*mem.Buffer) (*Exec, error) {
	size, err := c.ValidateAllReduce(in, out)
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
	slice := size / int64(len(ranks))
	inChans := c.C.NewSwitchChannels(ranks, in)
	outChans := c.C.NewSwitchChannels(ranks, out)
	bar := newBarrier(c, ranks)
	nTB := min(max(int(size/(256<<10)), 2), 24)
	return NewExec(c, a.Name(), nTB, func(k *machine.Kernel) {
		r := k.GPU.Rank
		// Entry barrier: all inputs registered and ready.
		if k.Block == 0 {
			bar.signalWait(k, ranks)
		}
		k.GridBarrier()
		// Fused in-switch reduce + multicast of my slice.
		core.FusedReduceBroadcast(k, inChans[r], outChans[r],
			int64(r)*slice, int64(r)*slice, slice, k.Block, k.NumBlocks)
		// Exit barrier: my output regions written by peers' stores.
		bar.gridSync(k, ranks)
	}), nil
}
