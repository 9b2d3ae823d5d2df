package expt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
)

// pinConfig is the small, fixed configuration the pin tests run at.
var pinConfig = Config{Seed: 3, Scale: 0.03, PopSize: 20, Seeds: 2, Workers: 2}

// wallClockValues are the report values that measure time, not the
// search: they differ between two runs of the same code.
var wallClockValues = map[string]bool{"overhead_sacga": true, "overhead_mesacga": true}

// valuesDigest fingerprints a report's values: the first 16 hex digits of
// a sha256 over each key (sorted) and its value's little-endian
// Float64bits, wall-clock values excluded.
func valuesDigest(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values {
		if !wallClockValues[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	var b [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(values[k]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestValuesPinned pins every experiment's headline values bit for bit at
// pinConfig. Each experiment configures, seeds, schedules and reduces its
// optimizer runs in its own way, so a change to any of those shows up here
// even when it keeps every self-referential determinism check green. A
// deliberate change to an experiment's numbers updates its digest, on
// purpose. At this scale c.iters floors all three fig10 spans to 12
// iterations, so fig10's three curves coincide.
func TestValuesPinned(t *testing.T) {
	want := map[string]string{
		"ablation": "eccdd75d89b2fd8b",
		"fig10":    "78f16b2616941caf",
		"fig11":    "ad7e594dfd014a5a",
		"fig2":     "8a601978bee9ab47",
		"fig4":     "826d55c1f0dbdbe5",
		"fig5":     "bb819f7fa80070d1",
		"fig6":     "b85bf85a3c95bb09",
		"fig8":     "36531e27eb8d7237",
		"fig9":     "b2a0863904952406",
		"hybrid":   "ff5d3d8b7b1c70a2",
		"trends":   "62aa8dc9b9cea057",
	}
	if ids := IDs(); len(ids) != len(want) {
		t.Fatalf("pinned %d experiments, registry has %v", len(want), ids)
	}
	for _, id := range IDs() {
		rep, err := Run(id, pinConfig)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := valuesDigest(rep.Values); got != want[id] {
			keys := make([]string, 0, len(rep.Values))
			for k := range rep.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				t.Logf("%s %s = %v", id, k, rep.Values[k])
			}
			t.Errorf("%s values digest = %s, want %s", id, got, want[id])
		}
	}
}

// TestAblationValuesPinned pins the ablation's headline values bit for bit
// at a small, fixed configuration. The ablation drives five different
// engine set-ups (TPG, local-only, instant-global, SACGA, and
// parallel-islands for the islands row), so a change to how any of them is
// configured or stepped shows up here even when it keeps every
// self-referential determinism check green.
func TestAblationValuesPinned(t *testing.T) {
	want := map[string]float64{
		"hv_instant-global":        16.681608612224757,
		"hv_islands":               31.044307288938,
		"hv_local-only":            11.59602247055877,
		"hv_sacga":                 20.075351661258807,
		"hv_tpg":                   23.830528538458747,
		"min_cl_pF_instant-global": 4.321931710466624,
		"min_cl_pF_islands":        1.730836544892207,
		"min_cl_pF_local-only":     1.081645413502097,
		"min_cl_pF_sacga":          4.265036907055201,
		"min_cl_pF_tpg":            1.212074563181544,
		"mix_beats_extremes":       0,
	}
	rep, err := Run("ablation", pinConfig)
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
