package ga

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Packed is a population in its packed binary form, the form every
// checkpoint payload carries its populations in. The layout is a uvarint
// count, then for each individual:
//
//	uvarint len(X)          len(X) × 8 bytes: X's IEEE 754 bits, little-endian
//	uvarint len(Objectives) len(Objectives) × 8 bytes: their bits
//	8 bytes: Violation's bits   8 bytes: Crowding's bits
//	varint Rank                 varint Partition
//
// Every varint is minimal, so a population has exactly one packed form,
// and raw bits carry every float as it was: NaN payloads, signed zeros,
// infinities and subnormals included.
//
// gob carries a Packed as one opaque byte string instead of walking each
// float through its reflective codec. GobDecode rejects a malformed
// population, so the gob decode that meets one fails.
type Packed []byte

// minPackedIndividual is the fewest bytes one packed individual takes:
// two one-byte lengths, Violation, Crowding and two one-byte varints.
const minPackedIndividual = 1 + 1 + 8 + 8 + 1 + 1

// PackPopulation returns p in the packed form, written straight from p
// into one buffer of exactly the packed size.
func PackPopulation(p Population) Packed {
	n := uvarintLen(uint64(len(p)))
	for _, ind := range p {
		n += uvarintLen(uint64(len(ind.X))) + 8*len(ind.X) +
			uvarintLen(uint64(len(ind.Objectives))) + 8*len(ind.Objectives) +
			16 + uvarintLen(zigzag(ind.Rank)) + uvarintLen(zigzag(ind.Partition))
	}
	b := make(Packed, 0, n)
	b = binary.AppendUvarint(b, uint64(len(p)))
	for _, ind := range p {
		b = appendFloats(b, ind.X)
		b = appendFloats(b, ind.Objectives)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ind.Violation))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ind.Crowding))
		b = binary.AppendUvarint(b, zigzag(ind.Rank))
		b = binary.AppendUvarint(b, zigzag(ind.Partition))
	}
	return b
}

// PackPopulations packs each population of ps.
func PackPopulations(ps []Population) []Packed {
	out := make([]Packed, len(ps))
	for i, p := range ps {
		out[i] = PackPopulation(p)
	}
	return out
}

func appendFloats(b []byte, v []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// uvarintLen is the length of v's minimal uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed integer to the unsigned one binary.AppendVarint
// writes as a uvarint.
func zigzag(v int) uint64 {
	x := int64(v)
	return uint64(x<<1) ^ uint64(x>>63)
}

// UnpackPopulation returns the population b packs, in the three
// allocations Population.Clone uses: the copies are carved from one block
// of individuals and one of their genes and objectives, each slice capped
// at its length, and an empty X or Objectives is nil. A first pass checks
// all of b, every count against the bytes left, before anything is
// allocated.
func UnpackPopulation(b []byte) (Population, error) {
	scan := unpacker{b: b}
	n := scan.walk(nil)
	if scan.err != nil {
		return nil, scan.err
	}
	out := make(Population, n)
	inds := make([]Individual, n)
	fill := unpacker{b: b, fill: true, vals: make([]float64, scan.floats)}
	fill.walk(inds)
	for i := range inds {
		out[i] = &inds[i]
	}
	return out, nil
}

// GobEncode implements gob.GobEncoder: the packed bytes themselves.
func (p Packed) GobEncode() ([]byte, error) { return p, nil }

// GobDecode implements gob.GobDecoder: it checks b and keeps a copy of it,
// since gob reuses its buffer.
func (p *Packed) GobDecode(b []byte) error {
	scan := unpacker{b: b}
	scan.walk(nil)
	if scan.err != nil {
		return scan.err
	}
	*p = Packed(bytes.Clone(b))
	return nil
}

// RestorePopulation returns the population a checkpoint carries: packed
// when the checkpoint was written in the packed form, else a clone of the
// struct-form population (legacy) that checkpoints written before it
// carry. Both nil give an empty population, as cloning a nil one does.
func RestorePopulation(packed Packed, legacy Population) (Population, error) {
	if packed != nil {
		return UnpackPopulation(packed)
	}
	return legacy.Clone(), nil
}

// RestorePopulations is RestorePopulation over a list of populations: the
// packed list when the checkpoint carries one, else clones of the legacy
// list.
func RestorePopulations(packed []Packed, legacy []Population) ([]Population, error) {
	if packed == nil {
		out := make([]Population, len(legacy))
		for i, p := range legacy {
			out[i] = p.Clone()
		}
		return out, nil
	}
	out := make([]Population, len(packed))
	for i, p := range packed {
		var err error
		if out[i], err = UnpackPopulation(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// unpacker walks a packed population front to back. The checking pass
// (fill unset) reads every field and counts the individuals and floats
// without allocating; the filling pass copies them into the blocks the
// checking pass sized. The first malformed field stops the walk.
type unpacker struct {
	b      []byte
	fill   bool
	vals   []float64 // the filling pass's unused float block
	floats int
	err    error
}

// walk reads the whole population, into inds on the filling pass, and
// returns its size.
func (u *unpacker) walk(inds []Individual) int {
	n := u.count("individual count", minPackedIndividual)
	for i := 0; i < n && u.err == nil; i++ {
		var ind Individual
		ind.X = u.vector("X length")
		ind.Objectives = u.vector("Objectives length")
		ind.Violation = u.float()
		ind.Crowding = u.float()
		ind.Rank = u.int("Rank")
		ind.Partition = u.int("Partition")
		if u.fill {
			inds[i] = ind
		}
	}
	if u.err == nil && len(u.b) > 0 {
		u.fail(fmt.Sprintf("%d bytes left over after %d individuals", len(u.b), n))
	}
	return n
}

func (u *unpacker) fail(reason string) {
	if u.err == nil {
		u.err = fmt.Errorf("ga: malformed packed population: %s", reason)
	}
}

// uvarint reads a minimal uvarint.
func (u *unpacker) uvarint(what string) uint64 {
	if u.err != nil {
		return 0
	}
	v, k := binary.Uvarint(u.b)
	switch {
	case k == 0:
		u.fail(what + " is truncated")
	case k < 0:
		u.fail(what + " overflows 64 bits")
	case k > 1 && u.b[k-1] == 0:
		u.fail(what + " is not a minimal varint")
	default:
		u.b = u.b[k:]
		return v
	}
	return 0
}

// count reads a count of items of at least size bytes each, failing
// unless that many fit in the bytes left.
func (u *unpacker) count(what string, size int) int {
	v := u.uvarint(what)
	if u.err == nil && v > uint64(len(u.b)/size) {
		u.fail(fmt.Sprintf("%s %d overruns the %d bytes left", what, v, len(u.b)))
		return 0
	}
	return int(v)
}

// int reads a zigzag varint that fits an int.
func (u *unpacker) int(what string) int {
	z := u.uvarint(what)
	v := int64(z>>1) ^ -int64(z&1)
	if int64(int(v)) != v {
		u.fail(fmt.Sprintf("%s %d overflows int", what, v))
		return 0
	}
	return int(v)
}

func (u *unpacker) float() float64 {
	if u.err != nil {
		return 0
	}
	if len(u.b) < 8 {
		u.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(u.b))
	u.b = u.b[8:]
	return v
}

// vector reads a length-prefixed float vector: counted on the checking
// pass, carved from the float block on the filling pass.
func (u *unpacker) vector(what string) []float64 {
	n := u.count(what, 8)
	if n == 0 {
		return nil
	}
	raw := u.b[:8*n]
	u.b = u.b[8*n:]
	u.floats += n
	if !u.fill {
		return nil
	}
	v := u.vals[:n:n]
	u.vals = u.vals[n:]
	for j := range v {
		v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return v
}
