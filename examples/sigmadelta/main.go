// Sigma-delta modulator closure — the application the paper's intro
// motivates: "We wish to use the optimal design surface of this circuit for
// the construction of a fourth-order sigma-delta modulator."
//
// This example closes that loop end-to-end: optimize the integrator with
// MESACGA, pick Pareto-front designs at three load levels, drop each into
// the behavioral fourth-order MASH 2-2 modulator, and compare the simulated
// peak SNR / noise floor against the analytic dynamic-range model the
// optimizer constrained.
//
//	go run ./examples/sigmadelta            # ~1 minute
//	go run ./examples/sigmadelta -fast
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"sort"

	"sacga/internal/dsp"
	"sacga/internal/ga"
	"sacga/internal/mesacga"
	"sacga/internal/process"
	"sacga/internal/sdm"
	"sacga/internal/search"
	"sacga/internal/sizing"
)

func main() {
	fast := flag.Bool("fast", false, "reduced budget")
	flag.Parse()
	iters, pop := 500, 80
	if *fast {
		iters, pop = 120, 50
	}
	tech := process.Default018()
	prob := sizing.New(tech, sizing.PaperSpec())
	clLo, clHi := sizing.ObjectiveRangeCL()

	fmt.Printf("step 1: explore the design surface (MESACGA, %d iterations)\n", iters)
	res, err := search.Run(context.Background(), new(mesacga.Engine), prob, search.Options{
		PopSize: pop, Seed: 11,
		Extra: &mesacga.Params{
			Schedule:           mesacga.DefaultSchedule(),
			PartitionObjective: 1, PartitionLo: clLo, PartitionHi: clHi,
			GentMax: 120, Span: iters / 7,
		},
	})
	if err != nil {
		log.Fatalf("mesacga: %v", err)
	}
	front := feasibleSorted(res.Front)
	if len(front) == 0 {
		fmt.Println("no feasible designs found — increase the budget")
		return
	}
	fmt.Printf("        front holds %d feasible designs\n\n", len(front))

	fmt.Println("step 2: build the 4th-order MASH 2-2 from picked front designs")
	const n, osr = 8192, 64
	for _, targetCL := range []float64{1e-12, 2.5e-12, 4.5e-12} {
		ind := nearestCL(front, targetCL)
		if ind == nil {
			continue
		}
		cl, pw := sizing.ReportedPoint(ind.Objectives)
		perf := prob.NominalPerf(ind.X)
		sys := prob.System()
		md := sdm.NewFromDesign(&perf, sys, perf.OutputRange/2)
		peak, at := md.DynamicRange(n, osr)

		// In-band noise decomposition at a small test level.
		bin := 43
		amp := 0.1 * md.VRef
		y := md.Simulate(dsp.SineTest(n, bin, amp))
		floor := dsp.BandPower(dsp.PSD(y, dsp.Hann(n)), n/(2*osr), bin, 3)
		fmt.Printf("  CL=%4.2f pF P=%6.3f mW: analytic DR %.1f dB | simulated peak SNR %.1f dB at %.0f dBFS | noise floor %.1f dB (analytic %.1f dB)\n",
			cl*1e12, pw*1e3, perf.DRdB, peak, at,
			10*math.Log10(floor), 10*math.Log10(perf.NoiseOut))
	}
	fmt.Println("\nthe simulated floors should track the analytic model within a few dB —")
	fmt.Println("the DR constraint the optimizer enforced is what the modulator experiences.")
}

func feasibleSorted(front ga.Population) ga.Population {
	var out ga.Population
	for _, ind := range front {
		if ind.Feasible() {
			out = append(out, ind)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Objectives[1] < out[j].Objectives[1]
	})
	return out
}

func nearestCL(front ga.Population, target float64) *ga.Individual {
	var best *ga.Individual
	bestD := math.Inf(1)
	for _, ind := range front {
		cl, _ := sizing.ReportedPoint(ind.Objectives)
		if d := math.Abs(cl - target); d < bestD {
			bestD, best = d, ind
		}
	}
	return best
}
