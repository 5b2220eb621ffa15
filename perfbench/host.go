package main

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"time"

	"mscclpp/internal/benchkit"
)

// The speed of a shared host drifts: other guests contend for the same
// cores, caches and memory, and the same fixed piece of single-threaded
// work took from 0.47 to 0.76 ms of CPU time in runs minutes apart on a
// 2-vCPU virtual machine. Such drift would swamp the change a benchmark is
// meant to show. So the benchmark runs a reference chunk of fixed work
// right before every op and around every set-up batch, and scales each
// op's CPU time by how fast the host ran the reference chunks around it:
// an op's time is reported at the speed at which the reference chunk
// takes refNominalMs.
//
// The reference chunk lives in this package and calls no repository code,
// so a change to the simulator cannot move it. It mixes the kinds of work
// the simulator does — a bounds-checked scan over a few small buffers as
// in a multimem reduce, map updates, pointer chasing, sorting, channel
// hand-offs between two goroutines and block copies — and allocates
// nothing after its first run, so it does not pay for the program's GC.

// refNominalMs is the CPU time in ms one reference chunk took on the host
// the baseline was measured on (a 2-vCPU Intel Xeon virtual machine),
// which keeps the reported times near what that host measured.
const refNominalMs = 0.75

// refWindow is how many reference chunks on each side of an op set the
// host speed the op is scaled by.
const refWindow = 4

const (
	refKeys  = 2000
	refHops  = 200
	refBlock = 64 << 10
	// refScan is the number of 4-byte words the scan sums over each of
	// refMembers buffers, into the first half of the copy's destination.
	refScan    = 8 << 10
	refMembers = 8
)

type refNode struct {
	next *refNode
	v    int
}

// hostRef holds the reference chunk's buffers and its echo goroutine,
// which runs until close.
type hostRef struct {
	m          map[int]int
	nodes      []refNode
	order      []int
	s          []int
	src, dst   []byte
	members    [refMembers][]byte
	ping, pong chan int
	done       chan struct{}
	sink       int
}

func newHostRef() *hostRef {
	r := &hostRef{
		m:     make(map[int]int, 4096),
		nodes: make([]refNode, refKeys),
		s:     make([]int, 0, refKeys),
		src:   make([]byte, refBlock),
		dst:   make([]byte, refBlock),
		ping:  make(chan int),
		pong:  make(chan int),
		done:  make(chan struct{}),
	}
	// Nodes are linked in a shuffled order, so the walk chases pointers
	// across the array instead of streaming through it.
	r.order = rand.New(rand.NewPCG(1, 2)).Perm(refKeys)
	for i := range r.members {
		r.members[i] = make([]byte, 4*refScan)
		for j := range r.members[i] {
			r.members[i][j] = byte(i + j)
		}
	}
	go func() {
		defer close(r.done)
		for v := range r.ping {
			r.pong <- v + 1
		}
	}()
	return r
}

// close stops the echo goroutine and waits for it to exit.
func (r *hostRef) close() {
	close(r.ping)
	<-r.done
}

// ms runs one reference chunk and returns its CPU time in ms.
func (r *hostRef) ms() float64 {
	t0 := cpuTime()
	x := uint64(88172645463325252)
	rnd := func() int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x >> 1)
	}
	var total uint32
	for i := 0; i < 4*refScan; i += 4 {
		var sum uint32
		for _, m := range r.members {
			if i+4 > len(m) {
				panic("reference scan out of range")
			}
			sum += binary.LittleEndian.Uint32(m[i:])
		}
		binary.LittleEndian.PutUint32(r.dst[i:], sum)
		total += sum
	}
	clear(r.m)
	for i := 0; i < refKeys; i++ {
		r.m[rnd()%4096] += i
	}
	var head *refNode
	for _, j := range r.order {
		n := &r.nodes[j]
		n.next, n.v = head, rnd()
		head = n
	}
	r.s = r.s[:0]
	for n := head; n != nil; n = n.next {
		r.s = append(r.s, n.v+r.m[n.v%4096])
	}
	slices.Sort(r.s)
	v := 0
	for i := 0; i < refHops; i++ {
		r.ping <- v
		v = <-r.pong
	}
	for i := 0; i < 8; i++ {
		r.src[i] = byte(v + i)
		copy(r.dst, r.src)
	}
	r.sink += r.s[len(r.s)/2] + v + int(r.dst[3]) + int(total)
	return float64(cpuTime()-t0) / float64(time.Millisecond)
}

// normalize scales each op's CPU time in ms to the reference speed. refMs[i]
// is the reference chunk that ran right before op i; an op is scaled by the
// median of the refWindow chunks on each side of it.
func normalize(opMs, refMs []float64) []float64 {
	out := make([]float64, len(opMs))
	for i := range opMs {
		lo, hi := max(0, i-refWindow+1), min(len(refMs), i+refWindow+1)
		out[i] = opMs[i] * refNominalMs / benchkit.Percentile(refMs[lo:hi], 50)
	}
	return out
}
