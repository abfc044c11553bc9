package fluidanimate

import (
	"fmt"
	"math"
	"testing"

	"repro/sig"
)

// oracleForces is forces as first written: a clipped 3×3 cell loop with an
// explicit self test. The row-slice walk must reproduce its every bit.
func oracleForces(pos, acc []float64, g *grid, lo, hi int) {
	for i := lo; i < hi; i++ {
		ax, ay := 0.0, gravity
		xi, yi := pos[2*i], pos[2*i+1]
		cx := min(max(int(xi*float64(g.cells)), 0), g.cells-1)
		cy := min(max(int(yi*float64(g.cells)), 0), g.cells-1)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= g.cells || ny >= g.cells {
					continue
				}
				c := ny*g.cells + nx
				for k := g.start[c]; k < g.start[c+1]; k++ {
					j := int(g.items[k])
					if j == i {
						continue
					}
					ddx, ddy := xi-pos[2*j], yi-pos[2*j+1]
					d2 := ddx*ddx + ddy*ddy
					if d2 >= radius*radius || d2 == 0 {
						continue
					}
					d := math.Sqrt(d2)
					f := stiff * (radius - d) / d
					ax += f * ddx
					ay += f * ddy
				}
			}
		}
		acc[2*i] = ax
		acc[2*i+1] = ay
	}
}

// edgeState is the seeded start state with particles moved onto the walls,
// into the four corner cells (exactly on the corners and just inside them)
// and onto each other, so clamped neighbourhoods, the x == 1 and y == 1
// cell clamp and coincident pairs are all exercised.
func edgeState(a *App) (pos, vel []float64) {
	pos, vel = a.initState()
	edge := [][2]float64{
		{0, 0}, {1, 1}, {0, 1}, {1, 0},
		{0.01, 0.005}, {0.995, 0.99}, {0.02, 0.985}, {0.985, 0.02},
		{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1},
		{0, 0.51}, {0.999, 0.49}, {0.51, 0.001}, {0.49, 0.999},
		{0.3, 0.3}, {0.3, 0.3}, {0.31, 0.3}, {0.3, 0.31},
	}
	for k, e := range edge {
		i := 3 * k // spread over the chunks
		pos[2*i], pos[2*i+1] = e[0], e[1]
		vel[2*i], vel[2*i+1] = 0.5-e[0], -e[1]
	}
	return pos, vel
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

// TestForcesMatchOracleBitExact steps the edge state with the kernel and
// with the oracle and compares accelerations and positions after every
// step.
func TestForcesMatchOracleBitExact(t *testing.T) {
	a := New(Params{N: 600, Steps: 12, Chunk: 64, Seed: 5})
	pos, vel := edgeState(a)
	opos, ovel := edgeState(a)
	acc, oacc := make([]float64, 2*a.p.N), make([]float64, 2*a.p.N)
	for s := 0; s < a.p.Steps; s++ {
		g := buildGrid(pos, a.p.N, a.cells)
		for lo := 0; lo < a.p.N; lo += a.p.Chunk {
			a.forces(pos, acc, g, lo, min(lo+a.p.Chunk, a.p.N))
		}
		oracleForces(opos, oacc, buildGrid(opos, a.p.N, a.cells), 0, a.p.N)
		sameBits(t, fmt.Sprintf("step %d acc", s), acc, oacc)
		integrate(pos, vel, acc, a.p.N)
		integrate(opos, ovel, oacc, a.p.N)
		sameBits(t, fmt.Sprintf("step %d pos", s), pos, opos)
	}
}

// TestRunMatchesOracleBitExact checks the runtime path and Sequential
// against oracle steps, at every step accurate and with gravity-only steps
// in between.
func TestRunMatchesOracleBitExact(t *testing.T) {
	a := New(Params{N: 500, Steps: 9, Chunk: 128, Seed: 3})
	oracle := func(every int) []float64 {
		pos, vel := a.initState()
		acc := make([]float64, 2*a.p.N)
		for s := 0; s < a.p.Steps; s++ {
			if s%every == 0 {
				oracleForces(pos, acc, buildGrid(pos, a.p.N, a.cells), 0, a.p.N)
			} else {
				gravityOnly(acc, 0, a.p.N)
			}
			integrate(pos, vel, acc, a.p.N)
		}
		return pos
	}
	sameBits(t, "Sequential", a.Sequential().Pos, oracle(1))
	for _, every := range []int{1, 3} {
		rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyGTB})
		if err != nil {
			t.Fatal(err)
		}
		got := a.Run(rt, every).Pos
		rt.Close()
		sameBits(t, fmt.Sprintf("Run every %d", every), got, oracle(every))
	}
}
