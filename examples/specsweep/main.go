// Specification sweep — a slice of the paper's §5 study.
//
// Runs MESACGA on a few grades of the 20-step specification ladder (loose
// → paper-tight → tighter) and shows how the attainable power/load front
// retreats as the specification hardens: tighter DR forces larger sampling
// capacitors and more amplifier current; tighter settling forces more slew
// current per picofarad of load.
//
//	go run ./examples/specsweep           # ~1 minute
//	go run ./examples/specsweep -fast
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/mesacga"
	"sacga/internal/process"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/yield"
)

func main() {
	fast := flag.Bool("fast", false, "reduced budget")
	flag.Parse()
	iters, pop := 500, 80
	if *fast {
		iters, pop = 120, 50
	}
	tech := process.Default018()
	clLo, clHi := sizing.ObjectiveRangeCL()
	ladder := sizing.SpecLadder(20)

	for _, grade := range []int{1, 7, 14, 20} {
		spec := ladder[grade-1]
		prob := sizing.New(tech, spec,
			sizing.WithRobustness(yield.NewEstimator(1, 8)))
		res, err := search.Run(context.Background(), new(mesacga.Engine), prob, search.Options{
			PopSize: pop, Seed: 5,
			Extra: &mesacga.Params{
				Schedule:           mesacga.DefaultSchedule(),
				PartitionObjective: 1, PartitionLo: clLo, PartitionHi: clHi,
				GentMax: 120, Span: iters / 7,
			},
		})
		if err != nil {
			log.Fatalf("mesacga: %v", err)
		}
		pts := feasiblePoints(res.Front)
		minP, maxCL := 1e18, 0.0
		for _, p := range pts {
			if p.Y < minP {
				minP = p.Y
			}
			if p.X > maxCL {
				maxCL = p.X
			}
		}
		hv := hypervolume.PaperMetricCovering(pts, sizing.CLMax, 1e-3) / (0.1e-3 * 1e-12)
		fmt.Printf("grade %2d (DR>=%.1fdB ST<=%.2fus rob>=%.2f): front=%2d  minP=%.3f mW  maxCL=%.2f pF  coverage-HV=%.2f\n",
			grade, spec.DRMinDB, spec.STMax*1e6, spec.RobustMin,
			len(pts), minP*1e3, maxCL*1e12, hv)
	}
	fmt.Println("\ntighter specifications shrink the feasible front and raise its power floor.")
}

func feasiblePoints(front ga.Population) []hypervolume.Point2 {
	var pts []hypervolume.Point2
	for _, ind := range front {
		if !ind.Feasible() {
			continue
		}
		cl, pw := sizing.ReportedPoint(ind.Objectives)
		pts = append(pts, hypervolume.Point2{X: cl, Y: pw})
	}
	return pts
}
