// Package bitvec implements three-valued (0/1/X) bit vectors and test-cube
// sets.
//
// Scan test patterns produced by ATPG are partially specified: every bit is
// 0, 1 or X (don't-care). The compression algorithms in this module consume
// such vectors; the don't-care bits are what the paper's dynamic assignment
// exploits. Vectors are stored two-plane — a value plane and a care plane —
// packed 64 bits per word, so compatibility checks and chunk extraction are
// word operations.
//
// Bit i of a Vector is stored at word i/64, bit position i%64 (LSB-first
// within a word). Chunk(pos, n) returns n stream bits with stream bit pos+j
// at result bit j.
package bitvec

import (
	"fmt"
	"math/bits"

	"lzwtc/internal/invariant"
)

// Bit is a three-valued logic bit.
type Bit uint8

// Three-valued bit constants.
const (
	Zero Bit = iota // specified 0
	One             // specified 1
	X               // unspecified (don't-care)
)

// String returns "0", "1" or "X".
func (b Bit) String() string {
	switch b {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "X"
	}
}

// Byte returns '0', '1' or 'X' — the single-character rendering without
// going through a string, for byte-at-a-time formatters.
func (b Bit) Byte() byte {
	switch b {
	case Zero:
		return '0'
	case One:
		return '1'
	default:
		return 'X'
	}
}

// Vector is a fixed-length three-valued bit vector.
// The zero value is an empty vector.
type Vector struct {
	n    int
	val  []uint64 // value plane; bit forced 0 where care bit is 0
	care []uint64 // care plane; 1 = specified
}

// New returns an all-X vector of length n.
func New(n int) *Vector {
	invariant.Check(n >= 0, "bitvec: negative length %d", n)
	w := (n + 63) / 64
	planes := make([]uint64, 2*w) // one allocation backs both planes
	return &Vector{n: n, val: planes[:w:w], care: planes[w:]}
}

// Len returns the number of bits in v.
func (v *Vector) Len() int { return v.n }

// Planes exposes the backing value and care plane words for read-only
// word-level access (bit i at word i/64, position i%64; value bits are
// forced 0 where care is 0). Sequential consumers — the compressor's
// character cursor — use it to extract chunks without per-call
// re-validation; mutating the returned slices would corrupt the vector.
func (v *Vector) Planes() (val, care []uint64) { return v.val, v.care }

// Get returns bit i.
func (v *Vector) Get(i int) Bit {
	v.check(i)
	w, b := i/64, uint(i%64)
	if v.care[w]>>b&1 == 0 {
		return X
	}
	return Bit(v.val[w] >> b & 1)
}

// Set assigns bit i.
func (v *Vector) Set(i int, b Bit) {
	v.check(i)
	w, off := i/64, uint(i%64)
	mask := uint64(1) << off
	switch b {
	case Zero:
		v.care[w] |= mask
		v.val[w] &^= mask
	case One:
		v.care[w] |= mask
		v.val[w] |= mask
	default:
		v.care[w] &^= mask
		v.val[w] &^= mask
	}
}

// check bounds-checks an index. The condition is tested inline and the
// invariant call sits in the cold branch: invariant.Check's variadic
// arguments would otherwise box on every Get/Set, which dominates
// allocation in per-bit loops.
func (v *Vector) check(i int) {
	if uint(i) >= uint(v.n) {
		invariant.Violatef("bitvec: index %d out of range [0,%d)", i, v.n)
	}
}

// Chunk extracts n bits (n in [0,64]) starting at stream position pos.
// Stream bit pos+j appears at bit j of the returned value and care words.
// Positions at or beyond Len() read as X (care 0), so a stream may be
// consumed in fixed-size characters with implicit don't-care padding.
func (v *Vector) Chunk(pos, n int) (val, care uint64) {
	if n < 0 || n > 64 {
		invariant.Violatef("bitvec: chunk width %d out of range", n)
	}
	if pos < 0 {
		invariant.Violatef("bitvec: negative chunk position %d", pos)
	}
	val = v.window(v.val, pos)
	care = v.window(v.care, pos)
	if n < 64 {
		mask := uint64(1)<<uint(n) - 1
		val &= mask
		care &= mask
	}
	return val, care
}

// window fetches 64 bits of plane starting at bit pos, zero-extended
// beyond the end of the vector.
func (v *Vector) window(plane []uint64, pos int) uint64 {
	w, off := pos/64, uint(pos%64)
	var lo, hi uint64
	if w < len(plane) {
		lo = plane[w]
	}
	if off == 0 {
		return lo
	}
	if w+1 < len(plane) {
		hi = plane[w+1]
	}
	return lo>>off | hi<<(64-off)
}

// SetChunk assigns n concrete bits starting at position pos: stream bit
// pos+j becomes bit j of val (0 or 1, always specified). Bits beyond Len()
// are silently dropped, mirroring Chunk's X padding. The write is
// word-parallel: one masked update per touched plane word.
func (v *Vector) SetChunk(pos, n int, val uint64) {
	if n < 0 || n > 64 {
		invariant.Violatef("bitvec: chunk width %d out of range", n)
	}
	if pos < 0 {
		invariant.Violatef("bitvec: negative chunk position %d", pos)
	}
	if pos >= v.n {
		return
	}
	if pos+n > v.n {
		n = v.n - pos
	}
	if n == 0 {
		return
	}
	m := ^uint64(0)
	if n < 64 {
		m = uint64(1)<<uint(n) - 1
	}
	val &= m
	w, off := pos/64, uint(pos%64)
	v.care[w] |= m << off
	v.val[w] = v.val[w]&^(m<<off) | val<<off
	if off+uint(n) > 64 {
		hi := m >> (64 - off)
		v.care[w+1] |= hi
		v.val[w+1] = v.val[w+1]&^hi | val>>(64-off)
	}
}

// CareCount returns the number of specified bits.
func (v *Vector) CareCount() int {
	total := 0
	for _, w := range v.care {
		total += popcount(w)
	}
	return total
}

// XCount returns the number of don't-care bits.
func (v *Vector) XCount() int { return v.n - v.CareCount() }

// XDensity returns the fraction of don't-care bits, in [0,1].
// An empty vector has density 0.
func (v *Vector) XDensity() float64 {
	if v.n == 0 {
		return 0
	}
	return float64(v.XCount()) / float64(v.n)
}

// Equal reports whether v and u have the same length and identical bits
// (X compares equal only to X).
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.val {
		if v.care[i] != u.care[i] || v.val[i]&v.care[i] != u.val[i]&u.care[i] {
			return false
		}
	}
	return true
}

// CompatibleWith reports whether concrete u agrees with v on every
// specified bit of v. u must be fully specified and the same length;
// it returns false otherwise. This is the correctness contract for a
// decompressed test stream: every care bit preserved.
func (v *Vector) CompatibleWith(u *Vector) bool {
	if v.n != u.n || u.XCount() != 0 {
		return false
	}
	for i := range v.val {
		if (v.val[i]^u.val[i])&v.care[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.val, v.val)
	copy(c.care, v.care)
	return c
}

// FillPolicy selects how residual don't-care bits are concretized.
type FillPolicy uint8

// Fill policies.
const (
	FillZero   FillPolicy = iota // X -> 0 (minimum-transition for RLE)
	FillOne                      // X -> 1
	FillRepeat                   // X -> previous concrete bit (0 at start)
)

// String names the policy.
func (p FillPolicy) String() string {
	switch p {
	case FillZero:
		return "zero"
	case FillOne:
		return "one"
	case FillRepeat:
		return "repeat"
	default:
		return fmt.Sprintf("FillPolicy(%d)", uint8(p))
	}
}

// Filled returns a fully specified copy of v with X bits assigned per
// policy p.
func (v *Vector) Filled(p FillPolicy) *Vector {
	c := v.Clone()
	last := Bit(Zero)
	for i := 0; i < c.n; i++ {
		b := c.Get(i)
		if b == X {
			switch p {
			case FillZero:
				b = Zero
			case FillOne:
				b = One
			case FillRepeat:
				b = last
			}
			c.Set(i, b)
		}
		last = b
	}
	return c
}

// Concat returns the concatenation of vs as a single vector.
func Concat(vs ...*Vector) *Vector {
	total := 0
	for _, v := range vs {
		total += v.n
	}
	out := New(total)
	pos := 0
	for _, v := range vs {
		orRange(out, pos, v, 0, v.n)
		pos += v.n
	}
	return out
}

// orRange ORs the n bits of src starting at spos into dst starting at
// dpos, 64 bits per step: one Chunk read and at most two word updates
// per plane. The destination range must be all-X (both planes clear,
// as in a fresh vector); src value bits are already 0 wherever care is
// 0, so an X source bit stays X and the result is exactly a per-bit
// copy. Every serialize and deserialize path goes through here.
func orRange(dst *Vector, dpos int, src *Vector, spos, n int) {
	if dpos < 0 || spos < 0 || n < 0 || dpos+n > dst.n || spos+n > src.n {
		invariant.Violatef("bitvec: copy of %d bits from %d (len %d) to %d (len %d) out of range",
			n, spos, src.n, dpos, dst.n)
	}
	for n > 0 {
		k := min(n, 64)
		val, care := src.Chunk(spos, k)
		w, off := dpos/64, uint(dpos%64)
		dst.val[w] |= val << off
		dst.care[w] |= care << off
		if off != 0 && off+uint(k) > 64 {
			dst.val[w+1] |= val >> (64 - off)
			dst.care[w+1] |= care >> (64 - off)
		}
		dpos, spos, n = dpos+k, spos+k, n-k
	}
}

// CubeSet is an ordered collection of equal-width test cubes — the test
// set for one core, one cube per scan pattern.
type CubeSet struct {
	Width int
	Cubes []*Vector
}

// NewCubeSet returns an empty cube set of the given pattern width.
func NewCubeSet(width int) *CubeSet {
	return &CubeSet{Width: width}
}

// Add appends a cube; it must match the set width.
func (cs *CubeSet) Add(v *Vector) error {
	if v.Len() != cs.Width {
		return fmt.Errorf("bitvec: cube width %d != set width %d", v.Len(), cs.Width)
	}
	cs.Cubes = append(cs.Cubes, v)
	return nil
}

// TotalBits returns the uncompressed test-set volume in bits.
func (cs *CubeSet) TotalBits() int { return cs.Width * len(cs.Cubes) }

// XDensity returns the overall don't-care fraction of the set.
func (cs *CubeSet) XDensity() float64 {
	if cs.TotalBits() == 0 {
		return 0
	}
	x := 0
	for _, c := range cs.Cubes {
		x += c.XCount()
	}
	return float64(x) / float64(cs.TotalBits())
}

// Serialize concatenates all cubes into the single scan-in stream the
// compressor consumes (pattern 0 first), matching the paper's
// single-scan-chain evaluation.
func (cs *CubeSet) Serialize() *Vector {
	return Concat(cs.Cubes...)
}

// SerializeAligned is Serialize with every pattern padded (with X bits)
// to the next multiple of charBits, so each scan vector starts on an LZW
// character boundary. This models the decompressor flushing its output
// shifter at the capture cycle between patterns; the pad bits are
// don't-cares and the compressor assigns them freely. Compression ratios
// must still be computed against TotalBits (the unpadded volume).
func (cs *CubeSet) SerializeAligned(charBits int) *Vector {
	if charBits <= 1 || cs.Width%charBits == 0 {
		return cs.Serialize()
	}
	w := (cs.Width + charBits - 1) / charBits * charBits
	out := New(w * len(cs.Cubes))
	for p, c := range cs.Cubes {
		orRange(out, p*w, c, 0, c.n)
	}
	return out
}

// DeserializeAligned inverts SerializeAligned: it splits a concrete
// stream produced under charBits alignment back into cubes of the given
// width, dropping the per-pattern pad bits.
func DeserializeAligned(stream *Vector, width, charBits int) (*CubeSet, error) {
	w := width
	if charBits > 1 {
		w = (width + charBits - 1) / charBits * charBits
	}
	if w <= 0 {
		return nil, fmt.Errorf("bitvec: invalid width %d", width)
	}
	if stream.Len()%w != 0 {
		return nil, fmt.Errorf("bitvec: stream length %d not a multiple of padded width %d", stream.Len(), w)
	}
	return split(stream, width, w), nil
}

// Deserialize splits a stream back into cubes of the set's width.
// The stream length must be a multiple of Width.
func Deserialize(stream *Vector, width int) (*CubeSet, error) {
	if width <= 0 {
		return nil, fmt.Errorf("bitvec: invalid width %d", width)
	}
	if stream.Len()%width != 0 {
		return nil, fmt.Errorf("bitvec: stream length %d not a multiple of width %d", stream.Len(), width)
	}
	return split(stream, width, width), nil
}

// split cuts stream into cubes of width bits, one every stride bits
// (stride >= width; the bits in between are dropped).
func split(stream *Vector, width, stride int) *CubeSet {
	cs := NewCubeSet(width)
	cs.Cubes = make([]*Vector, 0, stream.Len()/stride)
	for pos := 0; pos < stream.Len(); pos += stride {
		c := New(width)
		orRange(c, 0, stream, pos, width)
		cs.Cubes = append(cs.Cubes, c)
	}
	return cs
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
