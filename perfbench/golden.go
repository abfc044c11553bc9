package main

// goldenCell is a fig2-batch cell's expected result. For the deterministic
// policies (Accurate, GTB) quality, joules and provided are the exact values
// every run must reproduce: task costs are declared, so modeled joules do
// not depend on timing, and GTB decides from significance alone. LQH decides
// from per-worker history, which depends on scheduling, so its record is a
// band instead: quality is the highest acceptable quality loss and provided
// the largest acceptable |provided - requested|.
type goldenCell struct {
	quality, joules, provided float64
}

// lqhRatioBand bounds LQH's |provided - requested| on every kernel; the
// widest seen in 20 probe runs per kernel on 2 workers was 0.096 (DCT).
const lqhRatioBand = 0.15

// fig2Golden is keyed by "<Kernel>/<Mode>" at fig2Scale and Medium degree.
// The LQH quality bounds are twice the worst quality seen in 20 probe runs
// per kernel on 2 workers.
var fig2Golden = map[string]goldenCell{
	"Sobel/Accurate":        {0, 0.0940032, 1},
	"Sobel/GTB":             {0.050851363294800146, 0.036974592, 0.3},
	"Sobel/LQH":             {0.101, 0, lqhRatioBand},
	"DCT/Accurate":          {0, 0.40265318400000005, 1},
	"DCT/GTB":               {0.02842100311731787, 0.16121856, 0.400390625},
	"DCT/LQH":               {0.056, 0, lqhRatioBand},
	"MC/Accurate":           {0, 0.1778688, 1},
	"MC/GTB":                {0.36203706921209305, 0.0889344, 0.5},
	"MC/LQH":                {0.726, 0, lqhRatioBand},
	"Kmeans/Accurate":       {3.537091861468415e-14, 0.18874367999999997, 1},
	"Kmeans/GTB":            {1.3446594484416392e-05, 0.13602816, 0.59375},
	"Kmeans/LQH":            {0.0024, 0, lqhRatioBand},
	"Jacobi/Accurate":       {0, 0.11612159999999999, 1},
	"Jacobi/GTB":            {2.974080873060191, 0.09155328, 0.5},
	"Jacobi/LQH":            {6.32, 0, lqhRatioBand},
	"Fluidanimate/Accurate": {0, 0.0589824, 1},
	"Fluidanimate/GTB":      {0.20554894847242236, 0.016809984, 0.26666666666666666},
	"Fluidanimate/LQH":      {0.412, 0, lqhRatioBand},
}
