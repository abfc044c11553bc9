package kmeans

import (
	"fmt"
	"math"
	"testing"

	"repro/sig"
)

// The oracles below are the assignment kernel as first written: one
// dist2 call per centroid, indexing data and cent element by element. The
// unrolled D == 4 path and the hoisted reassign loop must reproduce their
// every bit.

func oracleDist2(a *App, cent []float64, i, c int) float64 {
	var d2 float64
	for d := 0; d < a.p.D; d++ {
		diff := a.data[i*a.p.D+d] - cent[c*a.p.D+d]
		d2 += diff * diff
	}
	return d2
}

func oracleNearest(a *App, cent []float64, i int) (int, float64) {
	best, bestD := 0, math.MaxFloat64
	for c := 0; c < a.p.K; c++ {
		d2 := oracleDist2(a, cent, i, c)
		if d2 < bestD {
			best, bestD = c, d2
		}
	}
	return best, bestD
}

func oracleNearestAmong(a *App, cent []float64, i int, candidates []int16) (int, float64) {
	best, bestD := int(candidates[0]), math.MaxFloat64
	for _, c := range candidates {
		d2 := oracleDist2(a, cent, i, int(c))
		if d2 < bestD {
			best, bestD = int(c), d2
		}
	}
	return best, bestD
}

func oracleInertia(a *App, cent []float64) float64 {
	var sum float64
	for i := 0; i < a.p.N; i++ {
		_, d2 := oracleNearest(a, cent, i)
		sum += d2
	}
	return sum
}

// oracleRunWave is runWave as first written, on the oracle search.
func oracleRunWave(a *App, rt *sig.Runtime, grp *sig.Group, s *lloydState) int {
	p := a.p
	nchunks := a.Tasks()
	neighbors := a.neighborTable(s.cent)
	candidates := 1 + min(approxNeighbors, p.K-1)
	for c := 0; c < nchunks; c++ {
		lo, hi := c*p.Chunk, min((c+1)*p.Chunk, p.N)
		for i := range s.counts[c] {
			s.counts[c][i] = 0
		}
		for i := range s.sums[c] {
			s.sums[c][i] = 0
		}
		s.changed[c] = 0
		reassign := func(restricted bool) {
			ch := 0
			for i := lo; i < hi; i++ {
				var k int
				if restricted && s.assign[i] >= 0 {
					k, _ = oracleNearestAmong(a, s.cent, i, neighbors[s.assign[i]])
				} else {
					k, _ = oracleNearest(a, s.cent, i)
				}
				if int32(k) != s.assign[i] {
					s.assign[i] = int32(k)
					ch++
				}
				s.counts[c][k]++
				for d := 0; d < p.D; d++ {
					s.sums[c][k*p.D+d] += a.data[i*p.D+d]
				}
			}
			s.changed[c] = ch
		}
		rt.Submit(
			func() { reassign(false) },
			sig.WithLabel(grp),
			sig.WithSignificance(s.signif[c]),
			sig.WithApprox(func() { reassign(true) }),
			sig.WithCost(float64((hi-lo)*p.K*p.D*3), float64((hi-lo)*candidates*p.D*3)),
			sig.Out(sig.SliceRange(s.assign, lo, hi)),
		)
	}
	rt.Wait(grp)
	total := make([]int64, p.K)
	vec := make([]float64, p.K*p.D)
	for c := 0; c < nchunks; c++ {
		for k := 0; k < p.K; k++ {
			total[k] += s.counts[c][k]
			for d := 0; d < p.D; d++ {
				vec[k*p.D+d] += s.sums[c][k*p.D+d]
			}
		}
	}
	for k := 0; k < p.K; k++ {
		if total[k] == 0 {
			continue
		}
		for d := 0; d < p.D; d++ {
			s.cent[k*p.D+d] = vec[k*p.D+d] / float64(total[k])
		}
	}
	moved := 0
	for c := 0; c < nchunks; c++ {
		moved += s.changed[c]
		frac := float64(s.changed[c]) / float64(min((c+1)*p.Chunk, p.N)-c*p.Chunk)
		s.signif[c] = 0.15 + 0.75*math.Min(1, 4*frac)
	}
	return moved
}

func newRuntime(t *testing.T) *sig.Runtime {
	t.Helper()
	rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyGTB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

var testParams = []Params{
	{N: 2048, K: 16, D: 4, MaxIter: 12, Chunk: 128, Seed: 4},
	{N: 1000, K: 5, D: 4, MaxIter: 12, Chunk: 96, Seed: 2},
	{N: 1500, K: 16, D: 3, MaxIter: 12, Chunk: 100, Seed: 7},
	{N: 777, K: 5, D: 3, MaxIter: 12, Chunk: 64, Seed: 1},
}

// TestRunMatchesOracleBitExact drives Run's Lloyd loop wave by wave next to
// the oracle loop, under the same policy and ratio: every wave must leave
// identical assignments and centroid bits, and the final inertia must match.
func TestRunMatchesOracleBitExact(t *testing.T) {
	for _, p := range testParams {
		for _, ratio := range []float64{1, 0.6, 0} {
			t.Run(fmt.Sprintf("K%d/D%d/ratio%g", p.K, p.D, ratio), func(t *testing.T) {
				a := New(p)
				rtNew, rtOld := newRuntime(t), newRuntime(t)
				gNew, gOld := rtNew.Group("kmeans", ratio), rtOld.Group("kmeans", ratio)
				sNew, sOld := a.newLloydState(), a.newLloydState()
				for it := 0; it < p.MaxIter; it++ {
					movedNew, _ := a.runWave(rtNew, gNew, sNew)
					movedOld := oracleRunWave(a, rtOld, gOld, sOld)
					if movedNew != movedOld {
						t.Fatalf("wave %d: moved %d, oracle %d", it, movedNew, movedOld)
					}
					for i := range sOld.assign {
						if sNew.assign[i] != sOld.assign[i] {
							t.Fatalf("wave %d: assign[%d] = %d, oracle %d", it, i, sNew.assign[i], sOld.assign[i])
						}
					}
					sameBits(t, fmt.Sprintf("wave %d centroids", it), sNew.cent, sOld.cent)
					if converged(movedOld, p.N) {
						break
					}
				}
				got, want := a.inertia(sNew.cent), oracleInertia(a, sOld.cent)
				sameBits(t, "inertia", []float64{got}, []float64{want})

				res := a.Run(newRuntime(t), ratio)
				sameBits(t, "Run centroids", res.Centroids, sOld.cent)
				sameBits(t, "Run inertia", []float64{res.Inertia}, []float64{want})
			})
		}
	}
}

// TestScoreMatchesOracle checks the serving path: Scorer.Score in both
// modes must assign every observation exactly as the oracle search does.
func TestScoreMatchesOracle(t *testing.T) {
	for _, p := range testParams {
		t.Run(fmt.Sprintf("K%d/D%d", p.K, p.D), func(t *testing.T) {
			a := New(p)
			cent := a.Sequential().Centroids
			sc := a.NewScorer(cent)
			for _, restricted := range []bool{false, true} {
				for lo := 0; lo < p.N; lo += 200 {
					hi := min(lo+200, p.N)
					got := sc.Score(lo, hi, restricted)
					for i := lo; i < hi; i++ {
						var want int
						if restricted {
							want, _ = oracleNearestAmong(a, cent, i, sc.table[i%p.K])
						} else {
							want, _ = oracleNearest(a, cent, i)
						}
						if int(got[i-lo]) != want {
							t.Fatalf("restricted=%v point %d: got %d, oracle %d", restricted, i, got[i-lo], want)
						}
					}
				}
			}
		})
	}
}

// TestNearestTieKeepsFirst pins the strict < tie rule: of two centroids at
// the same distance the lower index wins, in both the D == 4 path and the
// generic one.
func TestNearestTieKeepsFirst(t *testing.T) {
	if maxBits != math.Float64bits(math.MaxFloat64) {
		t.Fatalf("maxBits = %#x, want the bits of math.MaxFloat64", maxBits)
	}
	for _, d := range []int{3, 4} {
		a := New(Params{N: 4, K: 4, D: d, MaxIter: 1, Chunk: 4, Seed: 1})
		for i := range a.data[:d] {
			a.data[i] = 0
		}
		cent := make([]float64, 4*d)
		for c := 0; c < 4; c++ {
			cent[c*d] = 5 // every centroid except 2 and 3 is far
		}
		cent[2*d], cent[3*d] = 1, -1 // 2 and 3 tie at distance 1
		if k, d2 := a.nearest(cent, 0); k != 2 || d2 != 1 {
			t.Fatalf("D=%d nearest = %d (d2 %v), want 2 (d2 1)", d, k, d2)
		}
		if k, _ := a.nearestAmong(cent, 0, []int16{3, 2, 0}); k != 3 {
			t.Fatalf("D=%d nearestAmong = %d, want the first listed tie 3", d, k)
		}
	}
}
