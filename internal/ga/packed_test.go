package ga

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// specialPopulation holds every kind of float the packed form must carry
// bit for bit, in every float field, beside nil and empty vectors and
// extreme integers.
func specialPopulation() Population {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // a quiet NaN with a payload
	snan := math.Float64frombits(0x7ff0_0000_0000_0001)
	negNaN := math.Float64frombits(0xfff8_0000_0000_0042)
	sub := math.Float64frombits(1)           // the smallest subnormal
	negSub := -math.Float64frombits(0xfffff) // a negative subnormal
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	return Population{
		{X: []float64{0.25, negZero, sub, negSub}, Objectives: []float64{nan, snan}, Violation: negNaN, Rank: 0, Crowding: inf, Partition: -1},
		{X: nil, Objectives: []float64{}, Violation: 0, Rank: 3, Crowding: math.Inf(-1), Partition: 7},
		{X: []float64{}, Objectives: nil, Violation: math.MaxFloat64, Rank: math.MaxInt, Crowding: negZero, Partition: math.MinInt},
		{X: []float64{math.SmallestNonzeroFloat64, -math.MaxFloat64}, Objectives: []float64{inf, math.Inf(-1), nan}, Violation: sub, Rank: -1, Crowding: nan, Partition: 0},
	}
}

// samePopulation fails unless got carries want's every field bit for bit.
// As in a Clone, an empty X or Objectives must come back nil, and every
// other one capped at its length, so growing it cannot overwrite the next.
func samePopulation(t *testing.T, got, want Population) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d individuals, want %d", len(got), len(want))
	}
	sameBits := func(i int, what string, a, b []float64) {
		t.Helper()
		if len(b) == 0 {
			if a != nil {
				t.Fatalf("individual %d: empty %s came back as %#v, want nil", i, what, a)
			}
			return
		}
		if len(a) != len(b) || cap(a) != len(a) {
			t.Fatalf("individual %d: %s has %d values (capacity %d), want %d, capped", i, what, len(a), cap(a), len(b))
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("individual %d: %s[%d] bits %#x, want %#x", i, what, j, math.Float64bits(a[j]), math.Float64bits(b[j]))
			}
		}
	}
	for i := range want {
		g, w := got[i], want[i]
		sameBits(i, "X", g.X, w.X)
		sameBits(i, "Objectives", g.Objectives, w.Objectives)
		sameBits(i, "Violation", []float64{g.Violation}, []float64{w.Violation})
		sameBits(i, "Crowding", []float64{g.Crowding}, []float64{w.Crowding})
		if g.Rank != w.Rank || g.Partition != w.Partition {
			t.Fatalf("individual %d: rank/partition (%d, %d), want (%d, %d)", i, g.Rank, g.Partition, w.Rank, w.Partition)
		}
	}
}

func TestPackedRoundTripsEveryField(t *testing.T) {
	for _, tc := range []struct {
		name string
		pop  Population
	}{
		{"special", specialPopulation()},
		{"ranked", rankedPopulation(101, 30)},
		{"empty", Population{}},
		{"nil", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			packed := PackPopulation(tc.pop)
			if len(packed) != cap(packed) {
				t.Fatalf("packed into %d of %d bytes: the buffer is not exactly sized", len(packed), cap(packed))
			}
			got, err := UnpackPopulation(packed)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				t.Fatal("unpacked a nil population, want an empty one as Clone gives")
			}
			samePopulation(t, got, tc.pop)
			if again := PackPopulation(got); !bytes.Equal(again, packed) {
				t.Fatal("the unpacked population re-packs to other bytes")
			}
		})
	}
}

// TestPackedCarriesEveryIndividualField fails when Individual gains a
// field: the packed form would drop it from every checkpoint, so the
// layout and this list must grow with it.
func TestPackedCarriesEveryIndividualField(t *testing.T) {
	packed := []string{"X", "Objectives", "Violation", "Rank", "Crowding", "Partition"}
	typ := reflect.TypeOf(Individual{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(fields, packed) {
		t.Fatalf("Individual has fields %v, the packed form carries %v", fields, packed)
	}
}

func TestPackedAllocations(t *testing.T) {
	pop := rankedPopulation(103, 100)
	pop.AssignRanksAndCrowding()
	packed := PackPopulation(pop)
	if n := testing.AllocsPerRun(20, func() { PackPopulation(pop) }); n != 1 {
		t.Fatalf("PackPopulation makes %.1f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { UnpackPopulation(packed) }); n != 3 {
		t.Fatalf("UnpackPopulation makes %.1f allocations, want Clone's 3", n)
	}
}

func TestUnpackPopulationRejectsMalformed(t *testing.T) {
	good := PackPopulation(specialPopulation())
	one := PackPopulation(Population{{X: []float64{1}, Objectives: []float64{2}}})
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"non-minimal count", append([]byte{0x81, 0x00}, one[1:]...)},
		{"count overrun", append([]byte{2}, one[1:]...)},
		{"vector overrun", append([]byte{1, 9}, one[2:]...)},
		{"non-minimal rank", append(bytes.Clone(one[:len(one)-2]), 0x80, 0x00, 0x01)},
		{"varint overflow", append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, one[1:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnpackPopulation(tc.b); err == nil {
				t.Fatal("accepted")
			}
			var p Packed
			if err := p.GobDecode(tc.b); err == nil {
				t.Fatal("GobDecode accepted what UnpackPopulation rejects")
			}
		})
	}
}

// TestUnpackPopulationBoundedByInput: a short input claiming 2^60
// individuals fails without allocating by that count, under the 1 MB a
// frame read of a short input may allocate.
func TestUnpackPopulationBoundedByInput(t *testing.T) {
	input := binary.AppendUvarint(nil, 1<<60)
	input = append(input, bytes.Repeat([]byte{1}, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnpackPopulation(input)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("unpacking %d bytes allocated %d bytes, want under 1 MB", len(input), grew)
	}
}

// FuzzUnpackPopulation: UnpackPopulation never panics, allocates no more
// than a small multiple of its input, agrees with GobDecode on what is
// well formed, and every input it accepts re-packs to the same bytes.
func FuzzUnpackPopulation(f *testing.F) {
	f.Add([]byte(PackPopulation(specialPopulation())))
	f.Add([]byte(PackPopulation(rankedPopulation(109, 3))))
	f.Add([]byte(PackPopulation(nil)))
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pop, err := UnpackPopulation(b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(b))+64<<10 {
			t.Fatalf("unpacking %d bytes allocated %d bytes", len(b), grew)
		}
		var p Packed
		if gerr := p.GobDecode(b); (gerr == nil) != (err == nil) {
			t.Fatalf("UnpackPopulation error %v, GobDecode error %v", err, gerr)
		}
		if err != nil {
			return
		}
		if again := PackPopulation(pop); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-packs to %x", b, []byte(again))
		}
	})
}
