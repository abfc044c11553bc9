// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation at a reduced problem scale (so `go test -bench=.`
// completes quickly). Use cmd/sigbench with -scale 1.0 for evaluation-size
// runs; the per-experiment mapping is documented in DESIGN.md and the
// measured outcomes in EXPERIMENTS.md.
//
// Reported custom metrics: J = modeled energy per run, quality = the
// benchmark's "lower is better" quality metric (1/PSNR or relative error %).
package repro

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

// benchScale shrinks the problems for benchmarking.
const benchScale = 0.1

// BenchmarkTable1Catalog renders the benchmark catalog (Table 1). It exists
// so every paper artifact has a bench target; the work is trivial.
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard)
	}
}

// fig2Bench runs one Figure 2 cell (benchmark under a policy at a degree)
// per iteration and reports energy and quality metrics.
func fig2Bench(b *testing.B, bench string, mode harness.Mode, degree harness.Degree) {
	b.Helper()
	spec, ok := harness.SpecByName(bench)
	if !ok {
		b.Fatalf("unknown benchmark %q", bench)
	}
	inst := spec.Make(benchScale)
	ref := inst.Reference()
	b.ResetTimer()
	var last harness.Measurement
	for i := 0; i < b.N; i++ {
		m, err := harness.Execute(spec, inst, ref, mode, degree, harness.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !m.Applicable {
			b.Skipf("%s not applicable to %s", mode, bench)
		}
		last = m
	}
	b.ReportMetric(last.Joules, "J")
	b.ReportMetric(last.Quality, "quality")
}

// Figure 2, one sub-figure (row of plots) per benchmark. The Medium degree
// and both policy families are exercised; the accurate baseline and
// perforation anchor the comparison.

func BenchmarkFig2Sobel_Accurate(b *testing.B) {
	fig2Bench(b, "Sobel", harness.ModeAccurate, harness.Medium)
}
func BenchmarkFig2Sobel_GTB(b *testing.B) { fig2Bench(b, "Sobel", harness.ModeGTB, harness.Medium) }
func BenchmarkFig2Sobel_GTBMax(b *testing.B) {
	fig2Bench(b, "Sobel", harness.ModeGTBMax, harness.Medium)
}
func BenchmarkFig2Sobel_LQH(b *testing.B) { fig2Bench(b, "Sobel", harness.ModeLQH, harness.Medium) }
func BenchmarkFig2Sobel_Perforation(b *testing.B) {
	fig2Bench(b, "Sobel", harness.ModePerforation, harness.Medium)
}

func BenchmarkFig2DCT_Accurate(b *testing.B) {
	fig2Bench(b, "DCT", harness.ModeAccurate, harness.Medium)
}
func BenchmarkFig2DCT_GTB(b *testing.B)    { fig2Bench(b, "DCT", harness.ModeGTB, harness.Medium) }
func BenchmarkFig2DCT_GTBMax(b *testing.B) { fig2Bench(b, "DCT", harness.ModeGTBMax, harness.Medium) }
func BenchmarkFig2DCT_LQH(b *testing.B)    { fig2Bench(b, "DCT", harness.ModeLQH, harness.Medium) }
func BenchmarkFig2DCT_Perforation(b *testing.B) {
	fig2Bench(b, "DCT", harness.ModePerforation, harness.Medium)
}

func BenchmarkFig2MC_Accurate(b *testing.B) { fig2Bench(b, "MC", harness.ModeAccurate, harness.Medium) }
func BenchmarkFig2MC_GTB(b *testing.B)      { fig2Bench(b, "MC", harness.ModeGTB, harness.Medium) }
func BenchmarkFig2MC_LQH(b *testing.B)      { fig2Bench(b, "MC", harness.ModeLQH, harness.Medium) }

func BenchmarkFig2Kmeans_Accurate(b *testing.B) {
	fig2Bench(b, "Kmeans", harness.ModeAccurate, harness.Medium)
}
func BenchmarkFig2Kmeans_GTB(b *testing.B) { fig2Bench(b, "Kmeans", harness.ModeGTB, harness.Medium) }
func BenchmarkFig2Kmeans_LQH(b *testing.B) { fig2Bench(b, "Kmeans", harness.ModeLQH, harness.Medium) }

func BenchmarkFig2Jacobi_Accurate(b *testing.B) {
	fig2Bench(b, "Jacobi", harness.ModeAccurate, harness.Medium)
}
func BenchmarkFig2Jacobi_GTB(b *testing.B) { fig2Bench(b, "Jacobi", harness.ModeGTB, harness.Medium) }
func BenchmarkFig2Jacobi_LQH(b *testing.B) { fig2Bench(b, "Jacobi", harness.ModeLQH, harness.Medium) }

func BenchmarkFig2Fluidanimate_Accurate(b *testing.B) {
	fig2Bench(b, "Fluidanimate", harness.ModeAccurate, harness.Medium)
}
func BenchmarkFig2Fluidanimate_GTB(b *testing.B) {
	fig2Bench(b, "Fluidanimate", harness.ModeGTB, harness.Medium)
}
func BenchmarkFig2Fluidanimate_LQH(b *testing.B) {
	fig2Bench(b, "Fluidanimate", harness.ModeLQH, harness.Medium)
}

// BenchmarkSequential times each Table 1 kernel's sequential reference (no
// runtime, no policy) at scale 0.25, so kernel-body speed is measurable on
// its own. Each iteration builds a fresh instance untimed, because
// Reference caches its result.
func BenchmarkSequential(b *testing.B) {
	for _, spec := range harness.Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inst := spec.Make(0.25)
				b.StartTimer()
				inst.Reference()
			}
		})
	}
}

// BenchmarkFig1SobelQuadrants regenerates the Figure 1 mosaic.
func BenchmarkFig1SobelQuadrants(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig1(filepath.Join(dir, "fig1.pgm"), benchScale, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SobelPerforation regenerates the Figure 3 mosaic.
func BenchmarkFig3SobelPerforation(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig3(filepath.Join(dir, "fig3.pgm"), benchScale, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Overhead measures the runtime-overhead experiment (restricted
// to DCT, the paper's worst case, to keep bench time bounded).
func BenchmarkFig4Overhead(b *testing.B) {
	opt := harness.Options{Scale: benchScale, Benches: []string{"DCT"}}
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig4(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			for _, v := range r.Normalized {
				if v > worst {
					worst = v
				}
			}
		}
	}
	b.ReportMetric(worst, "worst-overhead-x")
}

// BenchmarkTable2PolicyAccuracy measures the policy-accuracy experiment on
// Sobel (round-robin multi-level significance, the interesting case).
func BenchmarkTable2PolicyAccuracy(b *testing.B) {
	opt := harness.Options{Scale: benchScale, Benches: []string{"Sobel"}}
	b.ResetTimer()
	var lqhInv float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(opt)
		if err != nil {
			b.Fatal(err)
		}
		lqhInv = rows[0].InversionPct[harness.ModeLQH]
	}
	b.ReportMetric(lqhInv, "LQH-inversions-%")
}

// TestMain keeps benchmark output reproducible by pinning the working
// directory expectations (nothing global to set up currently).
func TestMain(m *testing.M) { os.Exit(m.Run()) }
