package inference

import (
	"testing"

	"mscclpp/internal/moe"
	"mscclpp/internal/topology"
)

func TestMoEDecodeStepPricing(t *testing.T) {
	envFn := func() *topology.Env { return topology.H100(2) }
	m := DeepSeekV3MoE(16)
	ar := NewARTimer(envFn, LibMSCCLPP)
	ep := NewEPTimer(envFn, m.MoE.Config, m.MoE.Transport)

	const bsz, ctx = 24, 24 * 512
	st := MoEDecodeStepCtx(envFn(), m, bsz, ctx, ar.Time, ep.Layer)
	if st.Dispatch <= 0 || st.Combine <= 0 {
		t.Fatalf("all-to-all shares not positive: %+v", st)
	}
	if st.Combine <= st.Dispatch {
		t.Fatalf("combine (%d) should cost more than dispatch (%d): 2x the bytes", st.Combine, st.Dispatch)
	}
	dense := DecodeStepCtx(envFn(), DeepSeekV3(16), bsz, ctx, ar.Time)
	if st.Total <= dense {
		t.Fatalf("MoE step %d ns not above dense-equivalent %d ns: all-to-all priced at zero?", st.Total, dense)
	}
	if st.Total-st.Dispatch-st.Combine < dense {
		t.Fatalf("MoE roofline part %d ns below dense %d ns at uniform routing", st.Total-st.Dispatch-st.Combine, dense)
	}

	pf := MoEPrefillStep(envFn(), m, 1, 512, ar.Time, ep.Layer)
	if pf.Total <= 0 || pf.Dispatch <= 0 || pf.Combine <= 0 {
		t.Fatalf("prefill step: %+v", pf)
	}
}

// TestMoESkewPricing pins the imbalance model end to end: hot-expert skew
// under block placement strictly inflates the decode step, and the
// rebalancing remap recovers at least half of that inflation.
func TestMoESkewPricing(t *testing.T) {
	envFn := func() *topology.Env { return topology.H100(2) }
	ar := NewARTimer(envFn, LibMSCCLPP)
	step := func(skew float64, place moe.Placement) MoEStepCost {
		m := DeepSeekV3MoE(16)
		m.MoE.Config.Skew = skew
		m.MoE.Config.Placement = place
		ep := NewEPTimer(envFn, m.MoE.Config, m.MoE.Transport)
		return MoEDecodeStepCtx(envFn(), m, 24, 24*512, ar.Time, ep.Layer)
	}
	uni := step(0, moe.PlaceUniform)
	skew := step(0.5, moe.PlaceUniform)
	rebal := step(0.5, moe.PlaceRebalance)
	if skew.Total <= uni.Total {
		t.Fatalf("skewed step %d ns not above uniform %d ns", skew.Total, uni.Total)
	}
	gap := skew.Total - uni.Total
	if rebal.Total > uni.Total+gap/2 {
		t.Fatalf("rebalance recovers too little: uniform %d, skew %d, rebalance %d ns", uni.Total, skew.Total, rebal.Total)
	}
}

func TestMoELayerBytes(t *testing.T) {
	m := DeepSeekV3MoE(16)
	const n, tokens = 16, 100 // non-divisible: exercises the remainder split
	d, c := m.MoE.LayerBytes(n, tokens)
	if c != 2*d {
		t.Fatalf("combine bytes %d != 2x dispatch bytes %d", c, d)
	}
	// Cross-GPU volume plus the diagonal must conserve the full routed load.
	var diag int64
	for r, row := range m.MoE.Config.TrafficMatrix(n, tokens, 1) {
		diag += row[r]
	}
	want := int64(tokens) * int64(m.MoE.Config.TopK) * int64(m.MoE.Config.Hidden)
	if d+diag != want {
		t.Fatalf("dispatch %d + local %d != %d total bytes", d, diag, want)
	}
}

func TestEPTimerDeterministicCache(t *testing.T) {
	envFn := func() *topology.Env { return topology.H100(2) }
	cfg := moe.DefaultConfig()
	a := NewEPTimer(envFn, cfg, moe.TransportIBGDA)
	b := NewEPTimer(envFn, cfg, moe.TransportIBGDA)
	if a.Layer(24) != a.Layer(24) {
		t.Fatal("cached lookup diverged from first measurement")
	}
	if a.Layer(24) != b.Layer(24) {
		t.Fatal("independent timers diverged on the same measurement")
	}
	if z := a.Layer(0); z != (A2ACost{}) {
		t.Fatalf("zero tokens should be free, got %+v", z)
	}
}

// TestMeasureA2ARepeatable pins what lets MeasureA2A time one dispatch and
// one combine pass: on one engine, a second dispatch+combine pass takes
// exactly as long as the first, for both transports and for uniform,
// skewed and rebalanced routing.
func TestMeasureA2ARepeatable(t *testing.T) {
	skewed := moe.DefaultConfig()
	skewed.Skew = 0.5
	rebalanced := skewed
	rebalanced.Placement = moe.PlaceRebalance
	for _, cfg := range []moe.Config{moe.DefaultConfig(), skewed, rebalanced} {
		for _, tr := range []moe.Transport{moe.TransportMSCCLPP, moe.TransportIBGDA} {
			for _, tokens := range []int{1, 24, 257} {
				e, err := moe.New(topology.H100(2), cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				var passes [2]A2ACost
				for p := range passes {
					d, err := e.Dispatch(tokens)
					if err != nil {
						t.Fatal(err)
					}
					c, err := e.Combine(tokens)
					if err != nil {
						t.Fatal(err)
					}
					passes[p] = A2ACost{Dispatch: d.Elapsed, Combine: c.Elapsed}
				}
				if passes[0] != passes[1] {
					t.Errorf("%s skew=%v placement=%v tokens=%d: first pass %+v, second %+v",
						tr, cfg.Skew, cfg.Placement, tokens, passes[0], passes[1])
				}
			}
		}
	}
}
