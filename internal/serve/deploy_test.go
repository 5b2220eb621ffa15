package serve

// The contract every deployment shape shares: each offered request is
// accounted for exactly once, a request no replica can ever hold is
// rejected with a structured reason instead of failing the run, and every
// completed request's lifecycle timestamps are ordered.

import (
	"testing"

	"mscclpp/internal/sim"
)

func TestDeploymentContract(t *testing.T) {
	perTok := testConfig().Model.KVBytesPerTokenPerGPU
	reqs := []Request{
		{ID: 0, Arrival: 0, PromptLen: 64, OutputLen: 1},
		{ID: 1, Arrival: sim.Millisecond, PromptLen: 900, OutputLen: 200}, // 1100 tokens > 1000-token budget
		{ID: 2, Arrival: 2 * sim.Millisecond, PromptLen: 32, OutputLen: 1},
	}
	const oversized = 1
	wl, err := Trace("contract", reqs)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		run  func(cfg Config) (*Result, error)
	}{
		{"Run", func(cfg Config) (*Result, error) { return Run(cfg, wl) }},
		{"RunRouted", func(cfg Config) (*Result, error) {
			res, err := RunRouted(RouterConfig{Replicas: 2, Policy: NewJSQ(), Replica: cfg}, wl)
			if err != nil {
				return nil, err
			}
			return res.Merged, nil
		}},
		{"RunDisaggregated", func(cfg Config) (*Result, error) {
			res, err := RunDisaggregated(DisaggConfig{PrefillReplicas: 1, DecodeReplicas: 1, Replica: cfg}, wl)
			if err != nil {
				return nil, err
			}
			return res.Merged, nil
		}},
		{"RunAutoscaled", func(cfg Config) (*Result, error) {
			res, err := RunAutoscaled(AutoscaleConfig{Replica: cfg, Policy: NewStaticScale(0), MinReplicas: 1, MaxReplicas: 2}, wl)
			if err != nil {
				return nil, err
			}
			return res.Merged, nil
		}},
		{"RunAutoscaledDisagg", func(cfg Config) (*Result, error) {
			res, err := RunAutoscaledDisagg(DisaggScaleConfig{Slots: 2, Replica: cfg}, wl)
			if err != nil {
				return nil, err
			}
			return res.Merged, nil
		}},
	}
	for _, mode := range []MetricsMode{MetricsExact, MetricsStream} {
		for _, sh := range shapes {
			name := sh.name + "/exact"
			if mode == MetricsStream {
				name = sh.name + "/stream"
			}
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				cfg.KVCapacityBytes = 1000 * perTok
				cfg.Metrics = mode
				res, err := sh.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rejected != 1 {
					t.Errorf("rejected %d requests, want 1", res.Rejected)
				}
				if mode == MetricsStream {
					var offered, rejected int64
					for _, tier := range res.Stream.Tiers {
						offered += tier.Requests
						rejected += tier.Rejected
					}
					if offered != int64(len(reqs)) || rejected != 1 {
						t.Errorf("stream accounted %d requests (%d rejected), want %d (1 rejected)", offered, rejected, len(reqs))
					}
					return
				}
				// Run orders rows by completion, the merges by ID: compare sets.
				seen := map[int]int{}
				for _, m := range res.PerRequest {
					seen[m.ID]++
					if m.Rejected {
						if m.ID != oversized || m.RejectedReason != "kv-capacity" {
							t.Errorf("request %d rejected (%q); only request %d should be, for kv-capacity", m.ID, m.RejectedReason, oversized)
						}
						continue
					}
					if !(m.Arrival <= m.Admitted && m.Admitted <= m.FirstToken && m.FirstToken <= m.Done) {
						t.Errorf("request %d lifecycle out of order: %+v", m.ID, m)
					}
				}
				for _, r := range reqs {
					if seen[r.ID] != 1 {
						t.Errorf("request %d appears %d times, want once", r.ID, seen[r.ID])
					}
				}
				if len(seen) != len(reqs) {
					t.Errorf("%d distinct IDs in the result, want %d", len(seen), len(reqs))
				}
			})
		}
	}
}
