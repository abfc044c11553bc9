package jacobi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/sig"
)

// oracleSweepRow is sweepRow as first written, indexing the flat grid: the
// re-sliced row walk must reproduce its every bit.
func oracleSweepRow(src, dst []float64, n, y int) float64 {
	var dmax float64
	for x := 1; x < n-1; x++ {
		i := y*n + x
		nv := 0.25 * (src[i-1] + src[i+1] + src[i-n] + src[i+n])
		d := math.Abs(nv - src[i])
		if d > dmax {
			dmax = d
		}
		dst[i] = nv
	}
	return dmax
}

// oracleSweeps runs every sweep with every block accurate, or every block
// approximate (stencil on even block rows, copy on odd), on the oracle row
// update.
func oracleSweeps(a *App, approx bool) []float64 {
	n := a.p.N
	u, v := a.initGrid(), a.initGrid()
	for s := 0; s < a.p.Sweeps; s++ {
		for b := 0; b < a.Tasks(); b++ {
			lo := 1 + b*a.p.Block
			hi := min(lo+a.p.Block, n-1)
			for y := lo; y < hi; y++ {
				if approx && (y-lo)%2 == 1 {
					copy(v[y*n+1:(y+1)*n-1], u[y*n+1:(y+1)*n-1])
				} else {
					oracleSweepRow(u, v, n, y)
				}
			}
		}
		u, v = v, u
	}
	return u
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestSweepRowMatchesOracleBitExact(t *testing.T) {
	for _, n := range []int{8, 9, 37} {
		src := rng.Raw(uint64(n))
		grid := make([]float64, n*n)
		for i := range grid {
			grid[i] = 100*src.Float64() - 50
		}
		got, want := make([]float64, n*n), make([]float64, n*n)
		for y := 1; y < n-1; y++ {
			dg, dw := sweepRow(grid, got, n, y), oracleSweepRow(grid, want, n, y)
			if math.Float64bits(dg) != math.Float64bits(dw) {
				t.Fatalf("n=%d row %d: max change %v, oracle %v", n, y, dg, dw)
			}
		}
		sameBits(t, fmt.Sprintf("n=%d grid", n), got, want)
	}
}

// TestRunMatchesOracleBitExact runs the solver under the runtime fully
// accurate and fully approximate, on a grid whose interior is not a
// multiple of Block, and compares every grid value with the oracle sweeps.
func TestRunMatchesOracleBitExact(t *testing.T) {
	for _, p := range []Params{{N: 45, Sweeps: 9, Block: 16}, {N: 30, Sweeps: 7, Block: 5}} {
		t.Run(fmt.Sprintf("N%d/Block%d", p.N, p.Block), func(t *testing.T) {
			a := New(p)
			if (p.N-2)%p.Block == 0 {
				t.Fatalf("interior %d is a multiple of Block %d", p.N-2, p.Block)
			}
			accurate, approx := oracleSweeps(a, false), oracleSweeps(a, true)
			sameBits(t, "Sequential", a.Sequential(), accurate)
			for _, c := range []struct {
				ratio float64
				want  []float64
			}{{1, accurate}, {0, approx}} {
				rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyGTB})
				if err != nil {
					t.Fatal(err)
				}
				got := a.Run(rt, c.ratio)
				rt.Close()
				sameBits(t, fmt.Sprintf("Run ratio %g", c.ratio), got, c.want)
			}
		})
	}
}
