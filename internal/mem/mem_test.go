package mem

import (
	"testing"
	"testing/quick"
)

func TestNewBufferSizes(t *testing.T) {
	b := NewBuffer(0, "b", 64)
	if b.Size() != 64 || !b.Materialized() {
		t.Fatalf("size=%d materialized=%v", b.Size(), b.Materialized())
	}
	v := NewVirtualBuffer(1, "v", 1<<30)
	if v.Size() != 1<<30 || v.Materialized() {
		t.Fatalf("virtual: size=%d materialized=%v", v.Size(), v.Materialized())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuffer(0, "bad", -1)
}

func TestFloat32RoundTrip(t *testing.T) {
	b := NewBuffer(0, "b", 16)
	b.SetFloat32(4, 3.25)
	if got := b.Float32(4); got != 3.25 {
		t.Fatalf("got %v", got)
	}
	if got := b.Float32(0); got != 0 {
		t.Fatalf("untouched element = %v", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	b := NewBuffer(0, "b", 8)
	cases := []func(){
		func() { b.Float32(8) },
		func() { b.Float32(-4) },
		func() { b.SetFloat32(6, 1) },
		func() { b.CopyTo(NewBuffer(0, "d", 8), 4, 0, 8) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCopyTo(t *testing.T) {
	src := NewBuffer(0, "src", 32)
	dst := NewBuffer(1, "dst", 32)
	src.FillPattern(func(i int64) float32 { return float32(i) })
	src.CopyTo(dst, 8, 8, 16)
	if dst.Float32(8) != 2 || dst.Float32(20) != 5 {
		t.Fatalf("copy wrong: %v %v", dst.Float32(8), dst.Float32(20))
	}
	if dst.Float32(0) != 0 || dst.Float32(24) != 0 {
		t.Fatal("copy spilled outside range")
	}
}

func TestVirtualOpsAreNoops(t *testing.T) {
	v := NewVirtualBuffer(0, "v", 1024)
	m := NewBuffer(1, "m", 1024)
	m.FillFloat32(7)
	// None of these should panic or move data.
	v.SetFloat32(0, 1)
	if v.Float32(0) != 0 {
		t.Fatal("virtual read returned data")
	}
	v.CopyTo(m, 0, 0, 1024)
	if m.Float32(0) != 7 {
		t.Fatal("virtual source overwrote materialized destination")
	}
	m.CopyTo(v, 0, 0, 1024)
	v.AccumulateFrom(m, 0, 0, 1024)
	if err := v.EqualFloat32(func(int64) float32 { return 42 }, 0); err != nil {
		t.Fatalf("virtual EqualFloat32 should vacuously pass: %v", err)
	}
	// Bounds are still enforced on virtual buffers.
	defer func() {
		if recover() == nil {
			t.Fatal("expected bounds panic on virtual buffer")
		}
	}()
	v.CopyTo(m, 0, 512, 1024)
}

func TestAccumulateFrom(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	b := NewBuffer(1, "b", 16)
	a.FillPattern(func(i int64) float32 { return float32(i) })
	b.FillPattern(func(i int64) float32 { return float32(10 * i) })
	a.AccumulateFrom(b, 0, 0, 16)
	if err := a.EqualFloat32(func(i int64) float32 { return float32(11 * i) }, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateOddLengthPanics(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	b := NewBuffer(1, "b", 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.AccumulateFrom(b, 0, 0, 6)
}

func TestEqualFloat32Mismatch(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	a.FillFloat32(1)
	if err := a.EqualFloat32(func(int64) float32 { return 1 }, 0); err != nil {
		t.Fatalf("unexpected mismatch: %v", err)
	}
	if err := a.EqualFloat32(func(int64) float32 { return 2 }, 1e-6); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestMultimemReduceBroadcast(t *testing.T) {
	const ranks = 4
	var members []*Buffer
	for r := 0; r < ranks; r++ {
		b := NewBuffer(r, "m", 32)
		rr := r
		b.FillPattern(func(i int64) float32 { return float32(rr+1) * float32(i+1) })
		members = append(members, b)
	}
	mm, err := NewMultimem("grp", members)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBuffer(0, "dst", 32)
	mm.ReduceInto(dst, 0, 0, 32)
	// sum over r of (r+1)*(i+1) = 10*(i+1)
	if err := dst.EqualFloat32(func(i int64) float32 { return 10 * float32(i+1) }, 1e-5); err != nil {
		t.Fatal(err)
	}
	src := NewBuffer(2, "src", 32)
	src.FillFloat32(-3)
	mm.BroadcastFrom(src, 0, 0, 32)
	for r := 0; r < ranks; r++ {
		if err := members[r].EqualFloat32(func(int64) float32 { return -3 }, 0); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestMultimemSizeMismatch(t *testing.T) {
	a := NewBuffer(0, "a", 16)
	b := NewBuffer(1, "b", 32)
	if _, err := NewMultimem("bad", []*Buffer{a, b}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := NewMultimem("empty", nil); err == nil {
		t.Fatal("expected empty-group error")
	}
}

// Property: copy then accumulate equals 2x source for any offset-aligned
// subrange.
func TestCopyAccumulateProperty(t *testing.T) {
	f := func(seed uint8, nEl uint8) bool {
		n := int64(nEl%32+1) * 4
		src := NewBuffer(0, "s", n)
		dst := NewBuffer(1, "d", n)
		src.FillPattern(func(i int64) float32 { return float32(seed) + float32(i) })
		src.CopyTo(dst, 0, 0, n)
		dst.AccumulateFrom(src, 0, 0, n)
		return dst.EqualFloat32(func(i int64) float32 {
			return 2 * (float32(seed) + float32(i))
		}, 1e-5) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// group builds a multimem group of size-byte members; member r is
// materialized when mat[r] and holds (r+1)*(i+1) at element i.
func group(t testing.TB, size int64, mat ...bool) *Multimem {
	t.Helper()
	var members []*Buffer
	for r, m := range mat {
		if !m {
			members = append(members, NewVirtualBuffer(r, "v", size))
			continue
		}
		b := NewBuffer(r, "m", size)
		rr := r
		b.FillPattern(func(i int64) float32 { return float32(rr+1) * float32(i+1) })
		members = append(members, b)
	}
	mm, err := NewMultimem("grp", members)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected out-of-bounds panic", what)
		}
	}()
	fn()
}

func TestReduceAllVirtualMembers(t *testing.T) {
	src := group(t, 32, false, false, false)
	dst := group(t, 32, true, true)
	ReduceBroadcast(src, dst, 0, 0, 32)
	// Nothing was reduced, so nothing is stored: dst keeps its pattern.
	for r, d := range dst.Members {
		if err := d.EqualFloat32(func(i int64) float32 { return float32(r+1) * float32(i+1) }, 0); err != nil {
			t.Fatalf("member %d overwritten: %v", r, err)
		}
	}
	// ReduceInto stores the (empty) sum: zeros over the range only.
	out := NewBuffer(0, "out", 32)
	out.FillFloat32(9)
	src.ReduceInto(out, 8, 0, 16)
	if err := out.EqualFloat32(func(i int64) float32 {
		if i >= 2 && i < 6 {
			return 0
		}
		return 9
	}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMixedMembersSumsMaterializedOnly(t *testing.T) {
	// Members 0 and 2 are materialized: (1+3)*(i+1) per element.
	src := group(t, 32, true, false, true, false)
	want := func(i int64) float32 { return 4 * float32(i+1) }
	out := NewBuffer(0, "out", 32)
	src.ReduceInto(out, 0, 0, 32)
	if err := out.EqualFloat32(want, 0); err != nil {
		t.Fatal(err)
	}
	dst := group(t, 32, true, false, true)
	ReduceBroadcast(src, dst, 0, 0, 32)
	for r, d := range dst.Members {
		if err := d.EqualFloat32(want, 0); err != nil {
			t.Fatalf("member %d: %v", r, err)
		}
	}
}

func TestReduceZeroLength(t *testing.T) {
	// n == 0 checks only the destination offset; source offsets are not
	// inspected and no data moves.
	src := group(t, 32, true, false)
	dst := group(t, 32, true, true)
	ReduceBroadcast(src, dst, 32, 1<<20, 0)
	out := NewBuffer(0, "out", 32)
	out.FillFloat32(5)
	src.ReduceInto(out, 32, 1<<20, 0)
	src.ReduceInto(NewVirtualBuffer(0, "v", 32), 0, 1<<20, 0)
	if err := out.EqualFloat32(func(int64) float32 { return 5 }, 0); err != nil {
		t.Fatal(err)
	}
	expectPanic(t, "zero-length ReduceBroadcast past dst end", func() { ReduceBroadcast(src, dst, 36, 0, 0) })
	expectPanic(t, "zero-length ReduceInto past dst end", func() { src.ReduceInto(out, 36, 0, 0) })
}

func TestReduceVirtualOutOfBoundsPanics(t *testing.T) {
	src := group(t, 32, false, false)
	dst := group(t, 32, false, false)
	virt := NewVirtualBuffer(0, "v", 32)
	expectPanic(t, "ReduceBroadcast srcOff past end", func() { ReduceBroadcast(src, dst, 0, 4, 32) })
	expectPanic(t, "ReduceBroadcast negative srcOff", func() { ReduceBroadcast(src, dst, 0, -4, 8) })
	expectPanic(t, "ReduceInto virtual dst, srcOff past end", func() { src.ReduceInto(virt, 0, 4, 32) })
	expectPanic(t, "ReduceInto virtual dst, negative srcOff", func() { src.ReduceInto(virt, 0, -4, 8) })
	// A single short member is caught even when the rest fit.
	short := &Multimem{Name: "short", Members: []*Buffer{NewVirtualBuffer(0, "a", 32), NewVirtualBuffer(1, "b", 16)}}
	expectPanic(t, "ReduceInto short member", func() { short.ReduceInto(virt, 0, 0, 32) })
	expectPanic(t, "ReduceBroadcast short member", func() { ReduceBroadcast(short, dst, 0, 0, 32) })
}

// Property: the fast paths match a per-element reference (sum the
// materialized members at each element, in member order) for any
// materialization mix and any in-bounds subrange.
func TestReduceMatchesReference(t *testing.T) {
	f := func(mask uint8, offEl, nEl uint8) bool {
		const size = 64
		mat := make([]bool, 4)
		for r := range mat {
			mat[r] = mask&(1<<r) != 0
		}
		src := group(t, size, mat...)
		off := int64(offEl%16) * 4
		n := int64(nEl) * 4 % (size - off + 4)
		ref := func(i int64) float32 {
			var sum float32
			for _, b := range src.Members {
				if b.Materialized() {
					sum += b.Float32(off + i*4)
				}
			}
			return sum
		}
		out := NewBuffer(0, "out", size)
		src.ReduceInto(out, 0, off, n)
		dst := group(t, size, true, false)
		ReduceBroadcast(src, dst, 0, off, n)
		anyMat := mask&0xf != 0
		for i := int64(0); i < n/4; i++ {
			if out.Float32(i*4) != ref(i) {
				return false
			}
			if anyMat && dst.Members[0].Float32(i*4) != ref(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReduceBroadcastVirtual is the NVLS AllReduce's data step at
// benchmark scale: 8 all-virtual 64 MiB members reduced and broadcast. It
// must cost a bounds check per member and allocate nothing.
func BenchmarkReduceBroadcastVirtual(b *testing.B) {
	const size = 64 << 20
	mat := make([]bool, 8)
	src, dst := group(b, size, mat...), group(b, size, mat...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReduceBroadcast(src, dst, 0, 0, size)
	}
}

func TestShard(t *testing.T) {
	cases := []struct {
		size    int64
		tb, nTB int
		off, n  int64
	}{
		{1024, 0, 1, 0, 1024},
		{1024, 0, 4, 0, 256},
		{1024, 3, 4, 768, 256},
		{1028, 0, 4, 0, 260}, // 257 elements: first gets 65 elems
		{1028, 3, 4, 772, 256},
		{4, 0, 4, 0, 4},
		{4, 1, 4, 4, 0},
		{10, 0, 2, 0, 4}, // 2 elements + 2 tail bytes
		{10, 1, 2, 4, 6}, // last shard absorbs tail
	}
	for _, c := range cases {
		off, n := Shard(c.size, c.tb, c.nTB)
		if off != c.off || n != c.n {
			t.Errorf("Shard(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.size, c.tb, c.nTB, off, n, c.off, c.n)
		}
	}
	// Shards must tile the buffer exactly.
	for _, size := range []int64{0, 4, 100, 1024, 4093} {
		for _, nTB := range []int{1, 2, 3, 7, 16} {
			var total int64
			prevEnd := int64(0)
			for tb := 0; tb < nTB; tb++ {
				off, n := Shard(size, tb, nTB)
				if n > 0 && off != prevEnd {
					t.Fatalf("size %d nTB %d: shard %d starts at %d, want %d", size, nTB, tb, off, prevEnd)
				}
				if n > 0 {
					prevEnd = off + n
				}
				total += n
			}
			if total != size {
				t.Fatalf("size %d nTB %d: shards cover %d bytes", size, nTB, total)
			}
		}
	}
}
