package mc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// oracleBatchMean is batchMean as first written, with a branch per step: the
// table-driven walk must reproduce its every bit.
func oracleBatchMean(a *App, k, batch int) float64 {
	n := a.p.GridN
	src := rng.Raw(uint64(a.p.Seed)*0x9e3779b97f4a7c15 +
		uint64(k)*0xbf58476d1ce4e5b9 + uint64(batch)*0x94d049bb133111eb + 1)
	var sum float64
	for w := 0; w < a.p.WalksPerBatch; w++ {
		i, j := a.px[k], a.py[k]
		for i > 0 && i < n && j > 0 && j < n {
			switch src.Uint64() >> 62 {
			case 0:
				i++
			case 1:
				i--
			case 2:
				j++
			default:
				j--
			}
		}
		sum += a.boundary(i, j)
	}
	return sum / float64(a.p.WalksPerBatch)
}

func TestBatchMeanMatchesOracleBitExact(t *testing.T) {
	cases := []Params{
		{Points: 12, WalksPerBatch: 40, Batches: 4, GridN: 8, Seed: 3},
		{Points: 5, WalksPerBatch: 25, Batches: 3, GridN: 3, Seed: 1}, // clamped up to GridN 8
		{Points: 16, WalksPerBatch: 30, Batches: 5, GridN: 24, Seed: 3},
		{Points: 9, WalksPerBatch: 20, Batches: 2, GridN: 17, Seed: 0},
	}
	for _, p := range cases {
		t.Run(fmt.Sprintf("grid%d/seed%d", p.GridN, p.Seed), func(t *testing.T) {
			a := New(p)
			if a.p.GridN < 8 {
				t.Fatalf("GridN %d not clamped to 8", a.p.GridN)
			}
			for k := 0; k < a.p.Points; k++ {
				for b := 0; b < a.p.Batches; b++ {
					got, want := a.batchMean(k, b), oracleBatchMean(a, k, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("point %d batch %d: got %v (%#x), want %v (%#x)",
							k, b, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		})
	}
}
