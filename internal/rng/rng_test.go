package rng

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical seed diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "ga")
	b := Derive(7, "yield")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams with different labels look correlated: %d/100 equal draws", same)
	}
}

func TestDeriveStable(t *testing.T) {
	x := Derive(123, "component").Float64()
	y := Derive(123, "component").Float64()
	if x != y {
		t.Fatal("Derive is not a pure function of (seed,label)")
	}
	if Derive(123, "a").Float64() == Derive(124, "a").Float64() {
		t.Fatal("different master seeds should give different streams")
	}
}

func TestDeriveN(t *testing.T) {
	if DeriveN(1, "run", 0).Float64() == DeriveN(1, "run", 1).Float64() {
		t.Fatal("DeriveN should vary with n")
	}
	a := DeriveN(1, "run", 5).Float64()
	b := DeriveN(1, "run", 5).Float64()
	if a != b {
		t.Fatal("DeriveN not deterministic")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) out of range: %g", v)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	s := New(9)
	const n, dim = 16, 4
	cube := s.LatinHypercube(n, dim)
	if len(cube) != n {
		t.Fatalf("got %d rows, want %d", len(cube), n)
	}
	for d := 0; d < dim; d++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := cube[i][d]
			if v < 0 || v >= 1 {
				t.Fatalf("sample out of [0,1): %g", v)
			}
			k := int(v * n)
			if seen[k] {
				t.Fatalf("dimension %d: stratum %d hit twice — not a Latin hypercube", d, k)
			}
			seen[k] = true
		}
	}
}

func TestLatinHypercubeDegenerate(t *testing.T) {
	s := New(2)
	if got := s.LatinHypercube(0, 3); got != nil {
		t.Fatalf("LatinHypercube(0,3) = %v, want nil", got)
	}
	if got := s.LatinHypercube(3, 0); got != nil {
		t.Fatalf("LatinHypercube(3,0) = %v, want nil", got)
	}
}

func TestLatinHypercubeGaussMeanAndSpread(t *testing.T) {
	s := New(3)
	rows := s.LatinHypercubeGauss(4096, 1)
	sum, sum2 := 0.0, 0.0
	for _, r := range rows {
		sum += r[0]
		sum2 += r[0] * r[0]
	}
	n := float64(len(rows))
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("stratified gaussian mean %g, want ~0", mean)
	}
	if math.Abs(sd-1) > 0.05 {
		t.Fatalf("stratified gaussian sd %g, want ~1", sd)
	}
}

func TestInvNormCDFRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 1)
		if p <= 0 || p >= 1 {
			return true
		}
		x := InvNormCDF(p)
		back := NormCDF(x)
		return math.Abs(back-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInvNormCDFKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.8413447, 0.99999},
	}
	for _, c := range cases {
		got := InvNormCDF(c.p)
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("InvNormCDF(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsInf(InvNormCDF(0), -1) || !math.IsInf(InvNormCDF(1), 1) {
		t.Error("InvNormCDF should be -Inf at 0 and +Inf at 1")
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			n++
		}
	}
	frac := float64(n) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency %g", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestStateRoundTrip(t *testing.T) {
	// Drive a stream through every kind of draw, snapshot mid-way, and
	// check the restored stream replays the original bit for bit.
	s := New(1234)
	for i := 0; i < 257; i++ {
		switch i % 6 {
		case 0:
			s.Float64()
		case 1:
			s.Intn(17)
		case 2:
			s.Norm() // rejection sampling: variable draw consumption
		case 3:
			s.Perm(9)
		case 4:
			s.Shuffle(8, func(a, b int) {})
		default:
			s.Bool(0.3)
		}
	}
	st := s.State()
	r := FromState(st)
	for i := 0; i < 1000; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("draw %d diverged after restore: %v != %v", i, a, b)
		}
		if a, b := s.Norm(), r.Norm(); a != b {
			t.Fatalf("gaussian %d diverged after restore: %v != %v", i, a, b)
		}
	}
}

func TestStateFreshStream(t *testing.T) {
	// The zero-draw state restores to the freshly-seeded stream.
	s := New(77)
	st := s.State()
	if st.Seed != 77 || st.Draws != 0 {
		t.Fatalf("fresh state = %+v", st)
	}
	a, b := New(77), FromState(st)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("fresh restore diverged at %d", i)
		}
	}
}

func TestStateWrapperPreservesSequences(t *testing.T) {
	// The counting wrapper must not change the emitted values relative to
	// a bare math/rand generator (bit-compatibility with every sequence
	// recorded before checkpointing existed).
	s := New(42)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		if a, b := s.Float64(), r.Float64(); a != b {
			t.Fatalf("value %d: wrapper %v != bare %v", i, a, b)
		}
	}
	s2 := New(43)
	r2 := rand.New(rand.NewSource(43))
	for i := 0; i < 100; i++ {
		if a, b := s2.Norm(), r2.NormFloat64(); a != b {
			t.Fatalf("gaussian %d: wrapper %v != bare %v", i, a, b)
		}
	}
}

// coldStream is the reference a restore must match: a bare math/rand
// generator replayed from the seed, independent of FromState and its memo.
func coldStream(st State) *rand.Rand {
	src := rand.NewSource(st.Seed).(rand.Source64)
	for i := uint64(0); i < st.Draws; i++ {
		src.Uint64()
	}
	return rand.New(src)
}

// sameNext reports the first of the next n values where s and ref differ.
func sameNext(s *Stream, ref *rand.Rand, n int) (int, bool) {
	for i := 0; i < n; i++ {
		if s.Int63() != ref.Int63() {
			return i, false
		}
	}
	return 0, true
}

// memoised reports the draw count the memo holds for seed.
func memoised(seed int64) (uint64, bool) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	sn, ok := memo.snaps[seed]
	return sn.draws, ok
}

func TestFromStateMemoInterleaved(t *testing.T) {
	// Restores jump forward, repeat, jump backward and start at zero across
	// several seeds, then across more seeds than the memo holds. Every
	// restored stream must match a cold replay from its seed.
	r := rand.New(rand.NewSource(99))
	seeds := []int64{3, -8, 1 << 40, 12345, 0}
	pos := make(map[int64]uint64)
	warm := 0
	check := func(st State) {
		t.Helper()
		if d, ok := memoised(st.Seed); ok && d <= st.Draws {
			warm++
		}
		if i, ok := sameNext(FromState(st), coldStream(st), 1000); !ok {
			t.Fatalf("restore %+v: value %d differs from a cold replay", st, i)
		}
		if d, _ := memoised(st.Seed); d != st.Draws {
			t.Fatalf("restore %+v: memo left at %d draws", st, d)
		}
	}
	for step := 0; step < 300; step++ {
		seed := seeds[r.Intn(len(seeds))]
		d := pos[seed]
		switch r.Intn(5) {
		case 0:
			d += uint64(r.Intn(5000)) // forward
		case 1: // repeat
		case 2:
			d -= uint64(r.Intn(int(d) + 1)) // backward
		case 3:
			d = 0
		default:
			d += 1
		}
		pos[seed] = d
		check(State{Seed: seed, Draws: d})
	}
	for i := 0; i < 2*memoCap; i++ {
		check(State{Seed: int64(1000 + i), Draws: uint64(i * 7)})
		memo.mu.Lock()
		n := len(memo.snaps)
		memo.mu.Unlock()
		if n > memoCap {
			t.Fatalf("memo holds %d seeds, cap %d", n, memoCap)
		}
	}
	for i := 2*memoCap - 1; i >= 0; i-- {
		check(State{Seed: int64(1000 + i), Draws: uint64(i * 9)})
	}
	if warm < 100 {
		t.Fatalf("only %d restores resumed from the memo", warm)
	}
}

func TestFromStateMemoIndependent(t *testing.T) {
	// A restored stream and the memo must not share generator state:
	// advancing either leaves the other's output unchanged.
	st := State{Seed: 4242, Draws: 777}
	a := FromState(st)
	for i := 0; i < 5000; i++ {
		a.Float64() // would move a shared memo snapshot
	}
	b := FromState(st)
	if i, ok := sameNext(b, coldStream(st), 1000); !ok {
		t.Fatalf("memo moved with the restored stream: value %d differs", i)
	}
	next := State{Seed: st.Seed, Draws: st.Draws + 10}
	if i, ok := sameNext(FromState(next), coldStream(next), 10); !ok { // overwrites the memo
		t.Fatalf("forward restore: value %d differs", i)
	}
	if i, ok := sameNext(b, coldStream(State{Seed: st.Seed, Draws: st.Draws + 1000}), 1000); !ok {
		t.Fatalf("restored stream moved with the memo: value %d differs", i)
	}
}

func TestFromStateConcurrent(t *testing.T) {
	// Goroutines restore overlapping seeds at interleaved positions; each
	// stream must still match its cold replay.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				st := State{Seed: int64(500 + (g+k)%3), Draws: uint64(k*311 + g*17)}
				if i, ok := sameNext(FromState(st), coldStream(st), 200); !ok {
					t.Errorf("goroutine %d restore %+v: value %d differs", g, st, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

var sinkStream *Stream

// BenchmarkFromState restores a stream 10^6 draws from its seed: cold
// replays them all, warm resumes from the memoised generator at that
// position.
func BenchmarkFromState(b *testing.B) {
	const draws = 1_000_000
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkStream = FromState(State{Seed: int64(1<<32 + i), Draws: draws})
		}
	})
	b.Run("warm", func(b *testing.B) {
		st := State{Seed: 1 << 31, Draws: draws}
		FromState(st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkStream = FromState(st)
		}
	})
}
