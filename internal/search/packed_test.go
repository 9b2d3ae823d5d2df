package search_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sacga/internal/ga"
	"sacga/internal/mesacga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// TestPackedCheckpointsResume: the checkpoint this build writes, version 3
// with every population packed, resumes to the front, the final population
// and the evaluation count of the same run left uninterrupted, for every
// engine the legacy files cover and for the portfolio.
func TestPackedCheckpointsResume(t *testing.T) {
	for _, tc := range legacyCases() {
		t.Run(tc.name, func(t *testing.T) { resumePacked(t, legacyGen, tc.algo, tc.prob, tc.opts) })
	}
	t.Run("portfolio", func(t *testing.T) {
		// The portfolio counts epochs, and this one is done before epoch 12.
		resumePacked(t, 5, sched.NamePortfolio, constrProblem, search.Options{PopSize: 24, Generations: 16, Seed: 19,
			Extra: &sched.PortfolioParams{Members: []sched.Member{
				{Algo: "nsga2"},
				{Algo: "sacga", Extra: goldenSACGA(4, 0)},
			}}})
	})
}

// resumePacked saves a run's checkpoint at generation at, checks the file
// is version 3 with no struct-form population, and resumes it.
func resumePacked(t *testing.T, at int, algo string, prob func() objective.Problem, opts search.Options) {
	t.Helper()
	eng, err := search.New(algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(prob(), opts); err != nil {
		t.Fatal(err)
	}
	for eng.Generation() < at {
		if eng.Done() {
			t.Fatalf("the run finished at generation %d", eng.Generation())
		}
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if v := checkpointFileVersion(t, path); v != 3 {
		t.Fatalf("the checkpoint file is version %d, want 3", v)
	}
	cp, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if what := structForm(t, cp); what != "" {
		t.Fatalf("%s", what)
	}

	ref, err := search.New(algo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := search.Run(context.Background(), ref, prob(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := search.New(algo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search.Resume(context.Background(), fresh, prob(), opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evals != want.Evals || got.Generations != want.Generations {
		t.Fatalf("resumed run: %d evals over %d generations, uninterrupted: %d over %d",
			got.Evals, got.Generations, want.Evals, want.Generations)
	}
	popsIdentical(t, "final", got.Final, want.Final)
	popsIdentical(t, "front", got.Front, want.Front)
}

// checkpointFileVersion reads the version field of a checkpoint file's
// gob envelope.
func checkpointFileVersion(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const footerSize = 16
	var head struct {
		Magic      string
		Version    int
		Checkpoint *search.Checkpoint
	}
	if err := gob.NewDecoder(bytes.NewReader(raw[:len(raw)-footerSize])).Decode(&head); err != nil {
		t.Fatal(err)
	}
	return head.Version
}

// structForm names the first population a checkpoint carries in a
// read-only struct-form field, or a packed field it leaves empty; "" when
// every population is packed.
func structForm(t *testing.T, cp *search.Checkpoint) string {
	t.Helper()
	inner := func(cps []*search.Checkpoint) string {
		for _, c := range cps {
			if what := structForm(t, c); what != "" {
				return what
			}
		}
		return ""
	}
	switch st := cp.State.(type) {
	case *nsga2.Snapshot:
		if st.Pop != nil || st.PackedPop == nil {
			return "nsga2 population in struct form"
		}
	case *sacga.Snapshot:
		if st.Pop != nil || st.PhaseFronts != nil || st.PackedPop == nil {
			return "sacga population or fronts in struct form"
		}
	case *mesacga.Snapshot:
		if st.PhaseFronts != nil {
			return "mesacga fronts in struct form"
		}
		return structForm(t, &search.Checkpoint{State: st.Inner})
	case *sched.RelaySnapshot:
		return structForm(t, st.Inner)
	case *sched.IslandsSnapshot:
		return inner(st.Inner)
	case *sched.PortfolioSnapshot:
		return inner(st.Inner)
	default:
		t.Fatalf("no struct-form check for checkpoint state %T", cp.State)
	}
	return ""
}

// TestMalformedPopulationFallsBack: a checkpoint file whose CRC holds but
// whose packed population is malformed loads as a *search.CorruptError,
// so LoadLatestCheckpoint falls back to the rotated last-good file.
func TestMalformedPopulationFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	eng, _ := search.New("nsga2")
	if err := eng.Init(testProblem(), search.Options{PopSize: 10, Generations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	bad := eng.Checkpoint()
	sn := bad.State.(*nsga2.Snapshot)
	sn.PackedPop = append(sn.PackedPop, 0) // a byte left over after the population
	if _, err := ga.UnpackPopulation(sn.PackedPop); err == nil {
		t.Fatal("the tampered population still unpacks")
	}
	if err := search.SaveCheckpoint(path, bad); err != nil {
		t.Fatal(err)
	}

	_, err := search.LoadCheckpoint(path)
	var ce *search.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("loading the malformed population gave %T (%v), want *search.CorruptError", err, err)
	}
	cp, from, err := search.LoadLatestCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if from != path+search.PrevSuffix || cp.Gen != 0 {
		t.Fatalf("loaded generation %d from %s, want generation 0 from the last-good file", cp.Gen, from)
	}
}
