package search_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sacga/internal/search"
)

// TestSaveLoadCheckpointRoundTrip pins the durable-checkpoint satellite: a
// checkpoint written to disk, loaded in a fresh process image (a fresh
// decoder, same binary) and resumed is bit-identical to the uninterrupted
// run.
func TestSaveLoadCheckpointRoundTrip(t *testing.T) {
	tc := cases()[1] // sacga: phases + partition bookkeeping in the payload
	prob := tc.prob()
	eng, _ := search.New(tc.name)
	if err := eng.Init(prob, tc.opts()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	for !eng.Done() {
		eng.Step()
		if eng.Generation() == 5 {
			if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
				t.Fatal(err)
			}
		}
	}

	cp, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Algo != tc.name || cp.Gen != 5 {
		t.Fatalf("loaded checkpoint is %s@%d, want %s@5", cp.Algo, cp.Gen, tc.name)
	}
	fresh, _ := search.New(tc.name)
	res, err := search.Resume(context.Background(), fresh, prob, tc.opts(), cp)
	if err != nil {
		t.Fatal(err)
	}
	popsIdentical(t, "disk-resumed final", eng.Population(), res.Final)
}

// TestSaveCheckpointAtomicOverwrite overwrites an existing checkpoint and
// checks the directory holds exactly the installed file plus the rotated
// last-good snapshot — no temp litter — and that the newest snapshot wins.
func TestSaveCheckpointAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	eng, _ := search.New("nsga2")
	if err := eng.Init(testProblem(), search.Options{PopSize: 10, Generations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "run.ckpt" || entries[1].Name() != "run.ckpt"+search.PrevSuffix {
		t.Fatalf("checkpoint dir holds %v, want exactly run.ckpt and its rotated last-good", entries)
	}
	cp, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Gen != 2 {
		t.Fatalf("loaded generation %d, want the newest snapshot (2)", cp.Gen)
	}
	prev, err := search.LoadCheckpoint(path + search.PrevSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Gen != 1 {
		t.Fatalf("rotated generation %d, want the previous snapshot (1)", prev.Gen)
	}
}

// TestLoadCheckpointRejectsGarbage checks corrupt and missing files fail
// loudly instead of mis-decoding.
func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := search.LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := search.LoadCheckpoint(bad); err == nil {
		t.Fatal("corrupt file must error")
	}
	if err := search.SaveCheckpoint(filepath.Join(dir, "nil.ckpt"), nil); err == nil {
		t.Fatal("nil checkpoint must error")
	}
}

// TestFooterlessVersion1Loads: a version-1 file — a bare gob envelope, as
// builds wrote it before the CRC footer existed — still loads, to the
// checkpoint it carries.
func TestFooterlessVersion1Loads(t *testing.T) {
	eng, _ := search.New("nsga2")
	if err := eng.Init(testProblem(), search.Options{PopSize: 10, Generations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	want := eng.Checkpoint()
	envelope := struct {
		Magic      string
		Version    int
		Checkpoint *search.Checkpoint
	}{"sacga-checkpoint", 1, want}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(&envelope); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("loading a version-1 file: %v", err)
	}
	a, err := search.EncodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := search.EncodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the version-1 file loaded into a different checkpoint")
	}
}

// TestFooterlessVersion3FallsBack: a version-3 file that ends without its
// footer has lost it, so it loads as a *search.CorruptError, and
// LoadLatestCheckpoint falls back to the rotated last-good file.
func TestFooterlessVersion3FallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	eng, _ := search.New("nsga2")
	if err := eng.Init(testProblem(), search.Options{PopSize: 10, Generations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const footerSize = 16
	if err := os.WriteFile(path, sealed[:len(sealed)-footerSize], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = search.LoadCheckpoint(path)
	var ce *search.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "version-3 checkpoint without its CRC footer") {
		t.Fatalf("loading the footerless version-3 file gave %T (%v), want a *search.CorruptError for the lost footer", err, err)
	}
	cp, from, err := search.LoadLatestCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if from != path+search.PrevSuffix || cp.Gen != 0 {
		t.Fatalf("loaded generation %d from %s, want generation 0 from the last-good file", cp.Gen, from)
	}
}
