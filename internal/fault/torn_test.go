// Torn-checkpoint attacks: bit flips and truncations against the durable
// checkpoint format, proving corruption is always reported as a typed
// *search.CorruptError (never a gob panic) and that resume falls back to
// the rotated last-good snapshot bit-identically.
package fault_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sacga/internal/fault"
	"sacga/internal/search"
)

// stepTo advances eng to generation gen, failing the test on any error.
func stepTo(t *testing.T, eng search.Engine, gen int) {
	t.Helper()
	for eng.Generation() < gen {
		if err := eng.Step(); err != nil {
			t.Fatalf("step to generation %d: %v", gen, err)
		}
	}
}

// savedCheckpoint writes a real mid-run checkpoint to a temp file and
// returns its path and pristine bytes.
func savedCheckpoint(t *testing.T) (string, []byte) {
	t.Helper()
	eng, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(zdt1(), search.Options{PopSize: 16, Generations: 10, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	stepTo(t, eng, 3)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// footerSize mirrors the on-disk layout: [payload][len u64][crc u32][magic
// u32]. The CRC guards the payload; the footer guards itself, because a
// file whose footer magic is cut or flipped reads as footerless, and only
// version-1 files, which predate the footer, may be footerless.
const footerSize = 16

// loadFlipped corrupts one bit of the pristine image and loads the result;
// the load must never panic, and any failure must be a *CorruptError.
func loadFlipped(t *testing.T, path string, pristine []byte, bit int64) error {
	t.Helper()
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fault.FlipBit(path, bit); err != nil {
		t.Fatal(err)
	}
	cp, err := search.LoadCheckpoint(path)
	if err == nil {
		if cp == nil {
			t.Fatalf("bit %d: nil checkpoint with nil error", bit)
		}
		return nil
	}
	var ce *search.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bit %d: error is %T (%v), want *search.CorruptError", bit, err, err)
	}
	return err
}

// TestCheckpointBitFlipFuzz flips bits across the whole file. Every flip
// must be caught as a *CorruptError: in the CRC-guarded region — the
// payload plus the length and CRC fields — by the CRC, and in the trailing
// magic because a version-3 payload without its footer is corrupt.
func TestCheckpointBitFlipFuzz(t *testing.T) {
	path, pristine := savedCheckpoint(t)
	n := int64(len(pristine))
	guardedBits := (n - 4) * 8 // payload + length + CRC fields

	stride := guardedBits / 113
	if stride < 1 {
		stride = 1
	}
	for bit := int64(0); bit < guardedBits; bit += stride {
		if err := loadFlipped(t, path, pristine, bit); err == nil {
			t.Fatalf("bit %d: flip inside the CRC-guarded region loaded cleanly", bit)
		}
	}
	// The footer in full, every bit, the magic's included.
	for bit := (n - footerSize) * 8; bit < n*8; bit++ {
		if err := loadFlipped(t, path, pristine, bit); err == nil {
			t.Fatalf("bit %d: flip in the footer loaded cleanly", bit)
		}
	}
}

// TestCheckpointTruncationFuzz cuts the file short at a spread of points.
// Every cut must be a *CorruptError: one into the payload tears it, and
// one that only sheds (part of) the footer leaves a version-3 payload
// without its footer.
func TestCheckpointTruncationFuzz(t *testing.T) {
	path, pristine := savedCheckpoint(t)
	n := int64(len(pristine))
	payload := n - footerSize

	keeps := []int64{0, 1, 7, payload / 4, payload / 2, payload - 1, payload, n - 8, n - 1}
	for _, keep := range keeps {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fault.Truncate(path, keep); err != nil {
			t.Fatal(err)
		}
		_, err := search.LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("keep=%d of %d bytes loaded cleanly", keep, n)
		}
		var ce *search.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("keep=%d: error is %T (%v), want *search.CorruptError", keep, err, err)
		}
	}
}

// TestTornCheckpointFallsBackToPrevBitIdentical pins the second acceptance
// criterion: when the newest checkpoint is torn, LoadLatestCheckpoint falls
// back to the rotated last-good snapshot and the resumed run finishes
// bit-identically to an uninterrupted one.
func TestTornCheckpointFallsBackToPrevBitIdentical(t *testing.T) {
	prob := zdt1()
	opts := search.Options{PopSize: 16, Generations: 12, Seed: 33}

	refEng, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := search.Run(context.Background(), refEng, prob, opts)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(prob, opts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	stepTo(t, eng, 4)
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	stepTo(t, eng, 8)
	if err := search.SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	// Tear the newest checkpoint mid-payload; the generation-4 snapshot is
	// now the last trustworthy state.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	cp, loadedFrom, err := search.LoadLatestCheckpoint(path)
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if want := path + search.PrevSuffix; loadedFrom != want {
		t.Fatalf("loaded from %s, want the rotated last-good %s", loadedFrom, want)
	}
	if cp.Gen != 4 {
		t.Fatalf("fallback checkpoint is at generation %d, want 4", cp.Gen)
	}

	resumed, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Resume(context.Background(), resumed, prob, opts, cp)
	if err != nil {
		t.Fatalf("resume from fallback: %v", err)
	}
	popsIdentical(t, "resumed-from-prev population", ref.Final, res.Final)
	if res.Generations != ref.Generations {
		t.Fatalf("resumed run ended at generation %d, reference at %d", res.Generations, ref.Generations)
	}
}
