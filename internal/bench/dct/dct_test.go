package dct

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/imaging"
	"repro/internal/rng"
)

// oracle is the straightforward pixel-at-a-time DCT the optimised loops must
// reproduce bit for bit: the forward and inverse transforms exactly as first
// written, with their own cosine table.
type oracle struct {
	src    *imaging.Image
	bw, bh int
	cosTab [8][8]float64
	zigzag [64][2]int
}

func newOracle(a *App) *oracle {
	o := &oracle{src: a.src, bw: a.bw, bh: a.bh, zigzag: zigzagOrder()}
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			o.cosTab[x][u] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	return o
}

func (o *oracle) bandStripe(coeffs []float64, brow, band int) {
	for bcol := 0; bcol < o.bw; bcol++ {
		base := (brow*o.bw + bcol) * 64
		px, py := bcol*8, brow*8
		for k := band * bandSize; k < (band+1)*bandSize; k++ {
			u, v := o.zigzag[k][0], o.zigzag[k][1]
			var sum float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					sum += float64(o.src.At(px+x, py+y)) * o.cosTab[x][u] * o.cosTab[y][v]
				}
			}
			sum *= alpha(u) * alpha(v) / 4
			coeffs[base+v*8+u] = sum
		}
	}
}

func (o *oracle) reconstruct(coeffs []float64) *imaging.Image {
	out := imaging.NewImage(o.src.W, o.src.H)
	for brow := 0; brow < o.bh; brow++ {
		for bcol := 0; bcol < o.bw; bcol++ {
			base := (brow*o.bw + bcol) * 64
			px, py := bcol*8, brow*8
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					var sum float64
					for v := 0; v < 8; v++ {
						for u := 0; u < 8; u++ {
							c := coeffs[base+v*8+u]
							if c == 0 {
								continue
							}
							sum += alpha(u) * alpha(v) / 4 * c * o.cosTab[x][u] * o.cosTab[y][v]
						}
					}
					if sum < 0 {
						sum = 0
					}
					if sum > 255 {
						sum = 255
					}
					out.Set(px+x, py+y, uint8(sum))
				}
			}
		}
	}
	return out
}

// dropPattern zeroes coefficients the ways the runtime and perforation do
// (whole bands of a block row) plus all-zero blocks and isolated zeros.
func dropPattern(coeffs []float64, bw, bh int, seed uint64) {
	src := rng.New(seed)
	zz := zigzagOrder()
	for brow := 0; brow < bh; brow++ {
		for band := 0; band < bands; band++ {
			if src.Uint64()%3 != 0 {
				continue
			}
			for bcol := 0; bcol < bw; bcol++ {
				for k := band * bandSize; k < (band+1)*bandSize; k++ {
					coeffs[(brow*bw+bcol)*64+zz[k][1]*8+zz[k][0]] = 0
				}
			}
		}
	}
	for b := 0; b < bw*bh; b++ {
		if src.Uint64()%5 == 0 {
			clear(coeffs[b*64 : (b+1)*64])
		}
	}
	for i := range coeffs {
		if src.Uint64()%17 == 0 {
			coeffs[i] = 0
		}
	}
}

func TestKernelMatchesOracleBitExact(t *testing.T) {
	sizes := [][2]int{{8, 8}, {64, 64}, {61, 45}, {136, 72}}
	for _, sz := range sizes {
		for _, seed := range []int64{1, 2, 7} {
			t.Run(fmt.Sprintf("%dx%d/seed%d", sz[0], sz[1], seed), func(t *testing.T) {
				a := New(Params{W: sz[0], H: sz[1], Seed: seed})
				o := newOracle(a)
				n := a.bw * a.bh * 64
				got, want := make([]float64, n), make([]float64, n)
				for brow := 0; brow < a.bh; brow++ {
					for band := 0; band < bands; band++ {
						a.bandStripe(got, brow, band)
						o.bandStripe(want, brow, band)
					}
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("coefficient %d: got %v (%#x), want %v (%#x)",
							i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
				checkPixels(t, "full", a.reconstruct(got), o.reconstruct(want))
				for p := uint64(0); p < 4; p++ {
					dropped := append([]float64(nil), want...)
					dropPattern(dropped, a.bw, a.bh, uint64(seed)*31+p)
					checkPixels(t, fmt.Sprintf("pattern %d", p), a.reconstruct(dropped), o.reconstruct(dropped))
				}
			})
		}
	}
}

func checkPixels(t *testing.T, what string, got, want *imaging.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: image %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("%s: pixel (%d,%d) = %d, want %d", what, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
}

// TestTrimsToBlocks pins the trimming the differential test's odd size
// relies on: dimensions round down to multiples of 8, never below 8.
func TestTrimsToBlocks(t *testing.T) {
	a := New(Params{W: 61, H: 5, Seed: 1})
	if a.p.W != 56 || a.p.H != 8 || a.bw != 7 || a.bh != 1 {
		t.Fatalf("trimmed to %dx%d (%dx%d blocks), want 56x8 (7x1 blocks)", a.p.W, a.p.H, a.bw, a.bh)
	}
}
