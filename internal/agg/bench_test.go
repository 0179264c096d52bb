package agg

import (
	"fmt"
	"math/rand"
	"testing"

	"streampca/internal/randproj"
	"streampca/internal/sketch"
)

// BenchmarkAggregatorMerge measures the per-interval cost of the merge an
// aggregator performs in serveFetch: combining the sketch reports of its
// registered monitors (4 shards here) into the single upstream snapshot.
// Cells sweep the shared sketch parameter l ∈ {64, 128} for both families;
// the sketches/s metric is shard snapshots consumed per second.
//
// Each shard is 2l+64 flows wide so the FD cells respect the 2ℓ < w
// compression bound at the same parameter values as randproj.
func BenchmarkAggregatorMerge(b *testing.B) {
	const shards = 4
	const window = 64
	for _, family := range []sketch.Family{sketch.FamilyRandProj, sketch.FamilyFD} {
		for _, l := range []int{64, 128} {
			name := fmt.Sprintf("family=%s/l=%d", family, l)
			b.Run(name, func(b *testing.B) {
				snaps := benchShardSnapshots(b, family, shards, 2*l+64, l, window)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sketch.MergeColumns(snaps, l); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(shards)*float64(b.N)/b.Elapsed().Seconds(), "sketches/s")
			})
		}
	}
}

// benchShardSnapshots builds `shards` disjoint per-monitor sketchers of
// `width` flows each, streams `window` intervals of synthetic traffic
// through them, and returns their snapshots — the merge inputs an
// aggregator would gather in one fetch round.
func benchShardSnapshots(b *testing.B, family sketch.Family, shards, width, sketchParam, window int) []sketch.Snapshot {
	b.Helper()
	var gen *randproj.Generator
	if family == sketch.FamilyRandProj {
		var err error
		gen, err = randproj.NewGenerator(randproj.Config{Seed: 7, SketchLen: sketchParam, WindowLen: window})
		if err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	snaps := make([]sketch.Snapshot, shards)
	for si := 0; si < shards; si++ {
		ids := make([]int, width)
		for i := range ids {
			ids[i] = si*width + i
		}
		sk, err := sketch.New(sketch.Config{
			Family: family, FlowIDs: ids, WindowLen: window,
			Epsilon: 0.1, Gen: gen, Ell: sketchParam,
		})
		if err != nil {
			b.Fatal(err)
		}
		local := make([]float64, width)
		for t := 1; t <= window; t++ {
			for i := range local {
				local[i] = 500 + 50*rng.NormFloat64()
			}
			if err := sk.Update(int64(t), local); err != nil {
				b.Fatal(err)
			}
		}
		snaps[si] = sk.Snapshot()
	}
	return snaps
}
