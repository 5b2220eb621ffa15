package main

// Folding a CPU profile into the simulator's layers. The profile is
// decoded by the Go toolchain's own `go tool pprof -raw`, which prints
// every sample with its location ids and every location with its
// function names; this file parses that text and folds each stack.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layers maps the repository's packages to the benchmark's layer names.
// A package matches its entry or any package below it.
var layers = []struct{ pkg, layer string }{
	{"mscclpp/internal/sim", "sim"},
	{"mscclpp/internal/mem", "mem"},
	{"mscclpp/internal/fabric", "fabric"},
	{"mscclpp/internal/core", "core_proxy"},
	{"mscclpp/internal/proxy", "core_proxy"},
	{"mscclpp/internal/machine", "machine"},
	{"mscclpp/internal/dsl", "dsl_executor"},
	{"mscclpp/internal/plan", "dsl_executor"},
	{"mscclpp/internal/executor", "dsl_executor"},
	{"mscclpp/internal/baseline", "baseline"},
	{"mscclpp/internal/collective", "collective"},
	{"mscclpp/internal/benchkit", "benchkit"},
	{"mscclpp/internal/inference", "inference"},
	{"mscclpp/internal/serve", "serve"},
}

// profLayers lists every bucket fold can return, in report order.
var profLayers = []string{
	"sim", "mem", "fabric", "core_proxy", "machine", "dsl_executor", "baseline",
	"collective", "benchkit", "inference", "serve",
	"runtime.sched", "runtime.schedloop", "runtime.alloc", "runtime.gc", "bench", "other",
}

// Runtime frames that put a sample in one of the runtime buckets. gc and
// alloc win wherever they appear on the stack (an allocation charged to
// its caller would hide the allocator). A scheduler or channel frame
// between the leaf and the first repository frame is runtime.sched: a
// hand-off made by simulator code, such as a channel send that readies
// the receiver. A stack with scheduler frames and no repository frame at
// all is runtime.schedloop: an M in the scheduler loop on its own stack,
// either switching to the next goroutine after one parked, or spinning
// and going to sleep while its P has no work. A memmove under
// mem.ReduceBroadcast stays with mem.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.deductSweepCredit", "runtime.wbBufFlush",
		"runtime.scanobject", "runtime.bulkBarrierPreWrite", "runtime.(*sweepLocked)",
		"runtime.(*mspan).sweep", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
		"runtime.makemap", "runtime.newarray", "runtime.(*mcache)", "runtime.(*mheap)",
		"runtime.(*mcentral)",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.mcall", "runtime.findRunnable", "runtime.goexit0", "runtime.newproc",
		"runtime.gogo", "runtime.execute", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.mstart", "runtime.sysmon", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futex", "runtime.semacquire", "runtime.semrelease",
		"runtime.lock", "runtime.unlock", "runtime.casgstatus", "runtime.runq",
		"runtime.netpoll", "runtime.usleep", "runtime.osyield", "runtime.morestack",
		"runtime.newstack", "runtime.gosched", "runtime.goschedImpl", "runtime.closechan",
		"runtime.stealWork", "runtime.resetspinning", "runtime.checkTimers",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the package path of a symbol such as
// "mscclpp/internal/sim.(*Engine).Run".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of a generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// repoLayer returns the layer of a repository package; the benchmark's own
// package is "bench" and other repository packages (topology, timing)
// are "other".
func repoLayer(pkg string) (string, bool) {
	if pkg == "main" {
		return "bench", true
	}
	for _, l := range layers {
		if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
			return l.layer, true
		}
	}
	if strings.HasPrefix(pkg, "mscclpp/") {
		return "other", true
	}
	return "", false
}

// fold assigns one sample's stack (leaf first) to a layer.
func fold(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, gcFrames) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if hasAnyPrefix(f, allocFrames) {
			return "runtime.alloc"
		}
	}
	sched := false
	for _, f := range stack {
		if l, ok := repoLayer(pkgOf(f)); ok {
			if sched {
				return "runtime.sched"
			}
			return l
		}
		sched = sched || hasAnyPrefix(f, schedFrames)
	}
	if sched {
		return "runtime.schedloop"
	}
	return "other"
}

// foldProfile decodes the CPU profile at path with `go tool pprof -raw`
// and returns the CPU time of its samples per layer, in nanoseconds. The
// buckets sum to the profile's total by construction.
func foldProfile(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldRaw(string(raw))
}

// foldRaw folds the text `go tool pprof -raw` prints for a CPU profile.
// Its sample lines read "<count> <cpu ns>: <location ids>", and its
// location lines "<id>: <addr> M=<mapping> <function> <file:line:col>
// s=<start line>", followed by one indented "<function> <file...>" line
// per frame inlined into the location.
func foldRaw(raw string) (map[string]int64, error) {
	type sample struct {
		ns   int64
		locs []string
	}
	var (
		samples []sample
		locs    = map[string][]string{} // location id -> function names, leaf first
		lastLoc string
		section string
	)
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch line {
		case "Samples:", "Locations", "Mappings":
			section = line
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch section {
		case "Samples:":
			if len(f) < 2 || !strings.HasSuffix(f[1], ":") {
				continue // the column header, or a label line
			}
			ns, err := strconv.ParseInt(strings.TrimSuffix(f[1], ":"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cpu profile: sample %q: %v", line, err)
			}
			samples = append(samples, sample{ns, f[2:]})
		case "Locations":
			if id, ok := strings.CutSuffix(f[0], ":"); ok && len(f) >= 3 && strings.HasPrefix(f[2], "M=") {
				lastLoc = id
				locs[id] = nil
				if fn := funcOf(f[3:]); fn != "" {
					locs[id] = append(locs[id], fn)
				}
			} else if lastLoc != "" {
				if fn := funcOf(f); fn != "" {
					locs[lastLoc] = append(locs[lastLoc], fn)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if section == "" {
		return nil, fmt.Errorf("cpu profile: no samples section in pprof output")
	}

	out := make(map[string]int64, len(profLayers))
	for _, l := range profLayers {
		out[l] = 0
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, id := range s.locs {
			fns, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("cpu profile: sample names unknown location %s", id)
			}
			stack = append(stack, fns...)
		}
		out[fold(stack)] += s.ns
	}
	return out, nil
}

// funcOf returns the function name of a location's frame fields,
// "<function> <file:line:col> [s=<line>]". A generic function's name may
// hold spaces (a struct shape), so everything before the file is the name.
func funcOf(f []string) string {
	if n := len(f); n > 0 && strings.HasPrefix(f[n-1], "s=") {
		f = f[:n-1]
	}
	if len(f) < 2 {
		return strings.Join(f, " ")
	}
	return strings.Join(f[:len(f)-1], " ")
}
