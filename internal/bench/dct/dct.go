// Package dct implements the paper's DCT benchmark: an 8×8 blocked forward
// DCT where each task computes one zigzag frequency band for a stripe of
// blocks. Low-frequency bands carry high significance; approximating a band
// leaves its coefficients zero (the JPEG-style degradation), so no explicit
// approximate body is needed — the runtime's task-dropping path models it.
package dct

import (
	"math"

	"repro/internal/imaging"
	"repro/sig"
)

// bands is the number of zigzag coefficient groups; bandSize is the number
// of coefficients in each.
const (
	bands    = 8
	bandSize = 64 / bands
)

// Params sizes the problem.
type Params struct {
	W, H int
	Seed int64
}

// DefaultParams matches the evaluation-scale input.
func DefaultParams() Params { return Params{W: 2048, H: 2048, Seed: 2} }

// App is a DCT instance over a fixed synthetic image.
type App struct {
	p      Params
	src    *imaging.Image
	bw, bh int // blocks per row / column
	// cosT[u][x] is cos((2x+1)uπ/16), stored transposed so a basis
	// function's eight samples are contiguous.
	cosT [8][8]float64
	// scale[v][u] is the normalisation alpha(u)*alpha(v)/4.
	scale  [8][8]float64
	zigzag [64][2]int
}

// New builds the instance; dimensions are trimmed to multiples of 8.
func New(p Params) *App {
	p.W = max(8, p.W-p.W%8)
	p.H = max(8, p.H-p.H%8)
	a := &App{p: p, src: imaging.Synthetic(p.W, p.H, p.Seed), bw: p.W / 8, bh: p.H / 8}
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			a.cosT[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
			a.scale[x][u] = alpha(u) * alpha(x) / 4
		}
	}
	a.zigzag = zigzagOrder()
	return a
}

// Tasks returns the number of tasks one Run submits.
func (a *App) Tasks() int { return a.bh * bands }

// Sequential computes the fully accurate reference reconstruction.
func (a *App) Sequential() *imaging.Image {
	coeffs := make([]float64, a.bw*a.bh*64)
	for brow := 0; brow < a.bh; brow++ {
		for band := 0; band < bands; band++ {
			a.bandStripe(coeffs, brow, band)
		}
	}
	return a.reconstruct(coeffs)
}

// Run computes the DCT under the runtime: one task per (block-row, band),
// significance decreasing with frequency band. After the taskwait the image
// is reconstructed from whichever coefficients were computed.
func (a *App) Run(rt *sig.Runtime, ratio float64) *imaging.Image {
	coeffs := make([]float64, a.bw*a.bh*64)
	grp := rt.Group("dct", ratio)
	for brow := 0; brow < a.bh; brow++ {
		for band := 0; band < bands; band++ {
			lo := (brow*a.bw + 0) * 64
			hi := (brow*a.bw + a.bw) * 64
			rt.Submit(
				func() { a.bandStripe(coeffs, brow, band) },
				sig.WithLabel(grp),
				// Band 0 (DC + lowest AC) at 0.9 down to 0.2 for
				// the highest frequencies, as in the paper's
				// per-coefficient significance assignment.
				sig.WithSignificance(0.9-float64(band)/10),
				// 8 coefficients × 64 pixels × 2 ops per block;
				// an approximated band is dropped outright.
				sig.WithCost(float64(a.bw*8*64*2), 0),
				sig.Out(sig.SliceRange(coeffs, lo, hi)),
			)
		}
	}
	rt.Wait(grp)
	return a.reconstruct(coeffs)
}

// bandStripe computes the 8 zigzag coefficients of one band for every block
// of block-row brow.
//
// Each coefficient is the sum of p*cos[x][u]*cos[y][v] over y (outer) and x
// (inner), scaled by alpha(u)*alpha(v)/4. The block is loaded once and four
// coefficients accumulate side by side, each in its own register, so the
// four addition chains overlap; every coefficient still sees the same
// operations in the same order.
func (a *App) bandStripe(coeffs []float64, brow, band int) {
	var blk [64]float64
	zz := a.zigzag[band*bandSize : (band+1)*bandSize]
	w := a.p.W
	for bcol := 0; bcol < a.bw; bcol++ {
		for y := 0; y < 8; y++ {
			row := a.src.Pix[(brow*8+y)*w+bcol*8:][:8]
			for x, p := range row {
				blk[y*8+x] = float64(p)
			}
		}
		out := coeffs[(brow*a.bw+bcol)*64:][:64]
		for g := 0; g < bandSize; g += 4 {
			q := zz[g : g+4]
			c0, c1, c2, c3 := &a.cosT[q[0][0]], &a.cosT[q[1][0]], &a.cosT[q[2][0]], &a.cosT[q[3][0]]
			d0, d1, d2, d3 := &a.cosT[q[0][1]], &a.cosT[q[1][1]], &a.cosT[q[2][1]], &a.cosT[q[3][1]]
			var s0, s1, s2, s3 float64
			for y := 0; y < 8; y++ {
				e0, e1, e2, e3 := d0[y], d1[y], d2[y], d3[y]
				row := (*[8]float64)(blk[y*8:])
				for x, p := range row {
					s0 += p * c0[x] * e0
					s1 += p * c1[x] * e1
					s2 += p * c2[x] * e2
					s3 += p * c3[x] * e3
				}
			}
			for i, s := range [4]float64{s0, s1, s2, s3} {
				u, v := q[i][0], q[i][1]
				out[v*8+u] = s * a.scale[v][u]
			}
		}
	}
}

// reconstruct runs the inverse DCT over every block.
//
// Each pixel is the sum, over nonzero coefficients c in (v outer, u inner)
// order, of alpha(u)*alpha(v)/4*c*cos[x][u]*cos[y][v]. The factor
// (scale*c)*cos[x][u] is formed once per coefficient and column, then each
// pixel row accumulates its eight sums in registers; every pixel still sees
// the same additions in the same order. Zero coefficients (dropped bands)
// cost nothing.
func (a *App) reconstruct(coeffs []float64) *imaging.Image {
	out := imaging.NewImage(a.p.W, a.p.H)
	w := a.p.W
	var cols [64][8]float64 // (scale*c)*cos[x][u] per nonzero coefficient
	var cys [64]*[8]float64 // cos[.][v] per nonzero coefficient
	for brow := 0; brow < a.bh; brow++ {
		for bcol := 0; bcol < a.bw; bcol++ {
			blk := coeffs[(brow*a.bw+bcol)*64:][:64]
			n := 0
			for v := 0; v < 8; v++ {
				for u := 0; u < 8; u++ {
					c := blk[v*8+u]
					if c == 0 {
						continue
					}
					k := a.scale[v][u] * c
					cu := &a.cosT[u]
					for x := range cols[n] {
						cols[n][x] = k * cu[x]
					}
					cys[n] = &a.cosT[v]
					n++
				}
			}
			for y := 0; y < 8; y++ {
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				for i := 0; i < n; i++ {
					col, cy := &cols[i], cys[i][y]
					s0 += col[0] * cy
					s1 += col[1] * cy
					s2 += col[2] * cy
					s3 += col[3] * cy
					s4 += col[4] * cy
					s5 += col[5] * cy
					s6 += col[6] * cy
					s7 += col[7] * cy
				}
				dst := out.Pix[(brow*8+y)*w+bcol*8:][:8]
				for x, sum := range [8]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
					if sum < 0 {
						sum = 0
					}
					if sum > 255 {
						sum = 255
					}
					dst[x] = uint8(sum)
				}
			}
		}
	}
	return out
}

func alpha(u int) float64 {
	if u == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// zigzagOrder returns the JPEG zigzag scan as (u, v) pairs.
func zigzagOrder() [64][2]int {
	var order [64][2]int
	i := 0
	for s := 0; s < 15; s++ {
		if s%2 == 0 { // walk up-right
			for v := min(s, 7); v >= 0 && s-v <= 7; v-- {
				order[i] = [2]int{s - v, v}
				i++
			}
		} else { // walk down-left
			for u := min(s, 7); u >= 0 && s-u <= 7; u-- {
				order[i] = [2]int{u, s - u}
				i++
			}
		}
	}
	return order
}

// PSNR returns the PSNR of res against the reference in dB.
func (a *App) PSNR(ref, res *imaging.Image) float64 { return imaging.PSNR(ref, res) }

// Quality is 1/PSNR (lower is better); 0 for identical images.
func (a *App) Quality(ref, res *imaging.Image) float64 {
	p := imaging.PSNR(ref, res)
	if math.IsInf(p, 1) {
		return 0
	}
	return 1 / p
}
