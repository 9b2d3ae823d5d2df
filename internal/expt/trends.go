package expt

import (
	"path/filepath"

	"sacga/internal/plot"
	"sacga/internal/sizing"
	"sacga/internal/stats"
)

// Trends reproduces the paper's §5 study: run TPG, SACGA and MESACGA on
// twenty circuit specifications graded by difficulty, and check the two
// reported trends:
//
//  1. for runs longer than ~650 iterations the quality ordering is
//     MESACGA ≥ SACGA ≥ TPG (ascending paper-hypervolume), and
//  2. SACGA/MESACGA cost ≈ 18 % more computation time than NSGA-II from
//     their partitioning overheads.
//
// Because hard grades can make parts of the load range infeasible, ranking
// uses the coverage-pinned hypervolume variant (finite for partial fronts).
func Trends(c Config) (*Report, error) {
	c.normalize()
	rep := newReport("trends", Title("trends"))
	specs := sizing.SpecLadder(20)
	total := c.iters(800)

	type cell struct {
		hv   float64
		wall float64 // seconds
	}
	results := make([][3]cell, len(specs)) // [spec][algo]
	type job struct{ si, ai int }
	var jobs []job
	for si := range specs {
		for ai := 0; ai < 3; ai++ {
			jobs = append(jobs, job{si, ai})
		}
	}
	errs := make([]error, len(jobs))
	c.parallelRuns(len(jobs), func(i int) {
		j := jobs[i]
		var out runOut
		switch j.ai {
		case 0:
			out = c.runTPG(specs[j.si], total, c.Seed+int64(j.si))
		case 1:
			out = c.runSACGA(specs[j.si], 8, total, c.Seed+int64(j.si))
		default:
			out = c.runMESACGA(specs[j.si], nil, total, c.Seed+int64(j.si))
		}
		results[j.si][j.ai] = cell{hv: out.hvCover, wall: out.wall.Seconds()}
		errs[i] = out.err
	})
	if err := firstErr(errs); err != nil {
		return rep, err
	}

	var rows [][]float64
	var hvT, hvS, hvM, wT, wS, wM []float64
	orderedFull, orderedSvsT, orderedMvsT := 0, 0, 0
	const tol = 1.02 // 2% tolerance on "≥" (single runs are noisy)
	for si := range specs {
		t, s, m := results[si][0], results[si][1], results[si][2]
		rows = append(rows, []float64{float64(si + 1), t.hv, s.hv, m.hv, t.wall, s.wall, m.wall})
		hvT = append(hvT, t.hv)
		hvS = append(hvS, s.hv)
		hvM = append(hvM, m.hv)
		wT = append(wT, t.wall)
		wS = append(wS, s.wall)
		wM = append(wM, m.wall)
		if m.hv <= s.hv*tol && s.hv <= t.hv*tol {
			orderedFull++
		}
		if s.hv <= t.hv*tol {
			orderedSvsT++
		}
		if m.hv <= t.hv*tol {
			orderedMvsT++
		}
	}
	overheadS := stats.Mean(wS)/stats.Mean(wT) - 1
	overheadM := stats.Mean(wM)/stats.Mean(wT) - 1
	// Paired per-spec comparisons with an absolute tolerance of 2 % of the
	// mean TPG hypervolume.
	absTol := 0.02 * stats.Mean(hvT)
	winST, lossST, tieST := stats.WinLossTie(hvS, hvT, absTol)
	winMS, lossMS, tieMS := stats.WinLossTie(hvM, hvS, absTol)
	rep.Values["iterations"] = float64(total)
	rep.Values["specs"] = float64(len(specs))
	rep.Values["ordering_full_count"] = float64(orderedFull)
	rep.Values["sacga_beats_tpg_count"] = float64(orderedSvsT)
	rep.Values["mesacga_beats_tpg_count"] = float64(orderedMvsT)
	rep.Values["hv_mean_tpg"] = stats.Mean(hvT)
	rep.Values["hv_mean_sacga"] = stats.Mean(hvS)
	rep.Values["hv_mean_mesacga"] = stats.Mean(hvM)
	rep.Values["overhead_sacga"] = overheadS
	rep.Values["overhead_mesacga"] = overheadM
	rep.linef("over %d specs at %d iterations: SACGA beats TPG on %d, MESACGA on %d, full ordering MESACGA<=SACGA<=TPG holds on %d (2%% tolerance)",
		len(specs), total, orderedSvsT, orderedMvsT, orderedFull)
	rep.linef("mean coverage-HV: MESACGA %.2f, SACGA %.2f, TPG %.2f", stats.Mean(hvM), stats.Mean(hvS), stats.Mean(hvT))
	rep.linef("wall-clock overhead vs NSGA-II: SACGA %+.0f%%, MESACGA %+.0f%% (paper: about +18%%)",
		100*overheadS, 100*overheadM)
	rep.Values["wlt_sacga_vs_tpg_win"] = float64(winST)
	rep.Values["wlt_mesacga_vs_sacga_win"] = float64(winMS)
	rep.linef("paired win/loss/tie: SACGA vs TPG %d/%d/%d, MESACGA vs SACGA %d/%d/%d",
		winST, lossST, tieST, winMS, lossMS, tieMS)

	if c.OutDir != "" {
		csvPath := filepath.Join(c.OutDir, "trends_ladder.csv")
		if err := plot.WriteCSV(csvPath, []string{
			"spec", "hv_tpg", "hv_sacga", "hv_mesacga",
			"wall_tpg_s", "wall_sacga_s", "wall_mesacga_s"}, rows); err != nil {
			return rep, err
		}
		rep.Files = append(rep.Files, csvPath)
		series := []plot.Series{{Name: "TPG"}, {Name: "SACGA"}, {Name: "MESACGA"}}
		for si := range specs {
			for ai := 0; ai < 3; ai++ {
				series[ai].X = append(series[ai].X, float64(si+1))
				series[ai].Y = append(series[ai].Y, results[si][ai].hv)
			}
		}
		chart := plot.Chart{Title: "trends: coverage-HV per spec grade (lower better)",
			XLabel: "spec grade (1 loose .. 20 tight)", YLabel: "HV", Connect: true}
		chartPath := filepath.Join(c.OutDir, "trends_ladder.txt")
		if err := chart.RenderToFile(chartPath, series); err != nil {
			return rep, err
		}
		rep.Files = append(rep.Files, chartPath)
	}
	return rep, nil
}
