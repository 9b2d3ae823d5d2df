// Partition-count tuning — the study behind the paper's fig. 6.
//
// SACGA's quality after a fixed budget depends on the (hand-chosen) number
// of partitions m. This example sweeps m and prints the resulting paper
// hypervolume so the interior optimum is visible — and then shows why
// MESACGA exists: one run with the default expanding schedule, no tuning,
// lands near the best swept value.
//
//	go run ./examples/partitions            # ~1 minute
//	go run ./examples/partitions -fast
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
	"sacga/internal/sacga"
	"sacga/internal/search"
	"sacga/internal/sizing"
)

func main() {
	fast := flag.Bool("fast", false, "reduced budget")
	flag.Parse()
	iters, pop := 600, 80
	if *fast {
		iters, pop = 120, 50
	}
	tech := process.Default018()
	clLo, clHi := sizing.ObjectiveRangeCL()

	fmt.Printf("SACGA partition sweep, %d iterations each:\n", iters)
	bestM, bestHV := 0, 1e18
	for _, m := range []int{4, 8, 12, 16, 20, 24} {
		// One engine per partition count, all driven through search.Run
		// under the same total budget (phase II takes what phase I leaves).
		prob := sizing.New(tech, sizing.PaperSpec())
		res, err := search.Run(context.Background(), new(sacga.Engine), prob, search.Options{
			PopSize: pop, Generations: iters, Seed: 9,
			Extra: &sacga.Params{
				Partitions: m, PartitionObjective: 1,
				PartitionLo: clLo, PartitionHi: clHi, GentMax: 150,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		hv := paperHV(res.Front)
		fmt.Printf("  m=%2d  HV=%6.2f  front=%d\n", m, hv, len(res.Front))
		if hv < bestHV {
			bestHV, bestM = hv, m
		}
	}
	fmt.Printf("best swept partition count: m=%d (HV %.2f)\n\n", bestM, bestHV)

	prob := sizing.New(tech, sizing.PaperSpec())
	res, err := search.Run(context.Background(), new(mesacga.Engine), prob, search.Options{
		PopSize: pop, Seed: 9,
		Extra: &mesacga.Params{
			Schedule:           mesacga.DefaultSchedule(),
			PartitionObjective: 1, PartitionLo: clLo, PartitionHi: clHi,
			GentMax: 150, Span: iters / 7,
		},
	})
	if err != nil {
		log.Fatalf("mesacga: %v", err)
	}
	fmt.Printf("MESACGA (no tuning, schedule 20,13,8,5,3,2,1): HV %.2f\n", paperHV(res.Front))
	if *fast {
		fmt.Println("(-fast budgets are noisy; at the full budget MESACGA lands near the best swept SACGA)")
	} else {
		fmt.Println("MESACGA should land near the best swept SACGA without the sweep.")
	}
}

func paperHV(front ga.Population) float64 {
	var pts []hypervolume.Point2
	for _, ind := range front {
		if !ind.Feasible() {
			continue
		}
		cl, pw := sizing.ReportedPoint(ind.Objectives)
		pts = append(pts, hypervolume.Point2{X: cl, Y: pw})
	}
	return hypervolume.PaperMetric(pts) / (0.1e-3 * 1e-12)
}
