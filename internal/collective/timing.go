package collective

import (
	"fmt"
	"math"

	"mscclpp/internal/machine"
	"mscclpp/internal/mem"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// Candidate prepares one algorithm on a communicator's buffers. An
// Algorithm's Prepare method value is a Candidate; baseline libraries wrap
// their Prepare* constructors in one.
type Candidate func(c *Comm, in, out []*mem.Buffer) (*Exec, error)

// NewTimingComm builds a fresh timing-only cluster for env (MaterializeLimit
// 0, so every buffer is virtual) and allocates one inSize-byte "in" and one
// outSize-byte "out" buffer per rank.
func NewTimingComm(env *topology.Env, inSize, outSize int64) (c *Comm, in, out []*mem.Buffer) {
	m := machine.New(env)
	m.MaterializeLimit = 0
	c = New(m)
	n := c.Ranks()
	in = make([]*mem.Buffer, n)
	out = make([]*mem.Buffer, n)
	for r := 0; r < n; r++ {
		in[r] = m.Alloc(r, "in", inSize)
		out[r] = m.Alloc(r, "out", outSize)
	}
	return c, in, out
}

// TimeBest is the candidate-timing loop behind every best-of collective
// measurement: each candidate is prepared on its own NewTimingComm cluster
// and timed over one Run, and the fastest duration and its Exec name are
// returned (ties go to the earlier candidate). Candidates whose Prepare
// fails are not applicable in this configuration and are skipped.
//
// One run per candidate: the simulator is deterministic, so a prepared
// Exec's second invocation takes exactly as long as its first and a
// warm-up run would change no result. benchkit's TestRunTwiceSameDuration
// and inference's TestAllReduceCandidatesRunTwiceSameDuration pin this for
// every library's candidates.
func TimeBest(env *topology.Env, inSize, outSize int64, cands []Candidate) (sim.Duration, string, error) {
	best, bestName, found := sim.Duration(math.MaxInt64), "", false
	for _, prep := range cands {
		c, in, out := NewTimingComm(env, inSize, outSize)
		ex, err := prep(c, in, out)
		if err != nil {
			continue
		}
		d, err := c.Run(ex)
		if err != nil {
			return 0, "", err
		}
		if d < best {
			best, bestName, found = d, ex.Name, true
		}
	}
	if !found {
		return 0, "", fmt.Errorf("collective: no applicable algorithm")
	}
	return best, bestName, nil
}
