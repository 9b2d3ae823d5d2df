package expt

import (
	"math"
	"testing"
)

// TestAblationValuesPinned pins the ablation's headline values bit for bit
// at a small, fixed configuration. The ablation drives five different
// engine set-ups (TPG, local-only, instant-global, SACGA, islands), so a
// change to how any of them is configured or stepped shows up here even
// when it keeps every self-referential determinism check green.
func TestAblationValuesPinned(t *testing.T) {
	want := map[string]float64{
		"hv_instant-global":        16.681608612224757,
		"hv_islands":               23.927751951775242,
		"hv_local-only":            11.59602247055877,
		"hv_sacga":                 20.075351661258807,
		"hv_tpg":                   23.830528538458747,
		"min_cl_pF_instant-global": 4.321931710466624,
		"min_cl_pF_islands":        1.7912723875151775,
		"min_cl_pF_local-only":     1.081645413502097,
		"min_cl_pF_sacga":          4.265036907055201,
		"min_cl_pF_tpg":            1.212074563181544,
		"mix_beats_extremes":       0,
	}
	rep, err := Run("ablation", Config{Seed: 3, Scale: 0.03, PopSize: 20, Seeds: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != len(want) {
		t.Fatalf("report has %d values, want %d: %v", len(rep.Values), len(want), rep.Values)
	}
	for k, w := range want {
		got, ok := rep.Values[k]
		if !ok {
			t.Fatalf("report lacks %q", k)
		}
		if got != w {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
}

// TestMixBeatsExtremesVerdict pins the ablation's verdict: SACGA must do
// no worse than TPG, local-only and instant-global. The islands row is not
// a rival, so its hypervolume of 1, the best in every case, never counts.
func TestMixBeatsExtremesVerdict(t *testing.T) {
	hv := func(sacga, tpg, local, global float64) map[string]float64 {
		return map[string]float64{"hv_sacga": sacga, "hv_tpg": tpg,
			"hv_local-only": local, "hv_instant-global": global, "hv_islands": 1}
	}
	for _, tc := range []struct {
		name   string
		values map[string]float64
		want   bool
	}{
		{"beats all three", hv(2, 3, 3, 3), true},
		{"ties all three", hv(3, 3, 3, 3), true},
		{"loses to instant-global only", hv(2, 3, 3, 1), false},
		{"loses to tpg", hv(3, 2, 4, 4), false},
		{"loses to local-only", hv(3, 4, 2, 4), false},
		{"nan", hv(math.NaN(), 3, 3, 3), false},
	} {
		if got := mixBeatsExtremes(tc.values); got != tc.want {
			t.Errorf("%s: mixBeatsExtremes = %v, want %v", tc.name, got, tc.want)
		}
	}
}
