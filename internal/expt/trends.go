package expt

import (
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
// Each grade gets one seed, Config.Seed plus the grade index, shared by
// its three algorithms; Config.Seeds is ignored. Because hard grades can
// make parts of the load range infeasible, ranking uses the
// coverage-pinned hypervolume variant (finite for partial fronts).
func Trends(c Config) (*Report, error) {
	c.normalize()
	rep := newReport("trends", Title("trends"))
	specs := sizing.SpecLadder(20)
	total := c.iters(800)
	// Run i is algorithm i%3 (TPG, SACGA, MESACGA) on grade i/3.
	outs, err := c.sweep(3*len(specs), func(i int) runOut {
		spec, seed := specs[i/3], c.Seed+int64(i/3)
		switch i % 3 {
		case 0:
			return c.runTPG(spec, total, seed)
		case 1:
			return c.runSACGA(spec, 8, total, seed)
		default:
			return c.runMESACGA(spec, total, seed)
		}
	})
	if err != nil {
		return rep, err
	}

	var hv, wall [3][]float64 // [algo][grade]
	series := []plot.Series{{Name: "TPG"}, {Name: "SACGA"}, {Name: "MESACGA"}}
	for i, o := range outs {
		a := i % 3
		hv[a] = append(hv[a], o.hvCover)
		wall[a] = append(wall[a], o.wall.Seconds())
		series[a].X = append(series[a].X, float64(i/3+1))
		series[a].Y = append(series[a].Y, o.hvCover)
	}
	hvT, hvS, hvM := hv[0], hv[1], hv[2]
	var rows [][]float64
	orderedFull, orderedSvsT, orderedMvsT := 0, 0, 0
	const tol = 1.02 // 2% tolerance on "≥" (single runs are noisy)
	for si := range specs {
		t, s, m := hvT[si], hvS[si], hvM[si]
		rows = append(rows, []float64{float64(si + 1), t, s, m, wall[0][si], wall[1][si], wall[2][si]})
		if m <= s*tol && s <= t*tol {
			orderedFull++
		}
		if s <= t*tol {
			orderedSvsT++
		}
		if m <= t*tol {
			orderedMvsT++
		}
	}
	overheadS := stats.Mean(wall[1])/stats.Mean(wall[0]) - 1
	overheadM := stats.Mean(wall[2])/stats.Mean(wall[0]) - 1
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
	return rep, writeCurves(rep, c, "trends_ladder", []string{
		"spec", "hv_tpg", "hv_sacga", "hv_mesacga",
		"wall_tpg_s", "wall_sacga_s", "wall_mesacga_s"}, rows,
		plot.Chart{Title: "trends: coverage-HV per spec grade (lower better)",
			XLabel: "spec grade (1 loose .. 20 tight)", YLabel: "HV"}, series)
}
