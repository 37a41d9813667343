package bitvec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"lzwtc/internal/invariant"
)

// Cube text codec, eight characters per step.
//
// The parser loads eight text bytes as one little-endian word, so byte
// k of the word is stream bit i+k, and classifies all eight lanes with
// SWAR (SIMD-within-a-register) byte-equality masks: each mask has bit
// 7 of a byte set exactly where that byte equals the probed character.
// A multiply gathers the eight flags into one byte, which is ORed into
// the plane word. Any word holding a byte outside the alphabet goes
// through the byte loop, which reports the first offending position.
//
// The renderer runs the other way: each byte of the value and care
// planes indexes a 256-entry table that spreads its eight bits into
// the low bit of eight bytes, and two word operations turn the spread
// masks into the eight characters. Both directions reproduce the
// per-bit codec exactly: same vectors, same text, same errors.

const (
	lanes01 = 0x0101010101010101 // 0x01 in every byte
	lanes7f = 0x7f7f7f7f7f7f7f7f // 0x7f in every byte
	lanes80 = 0x8080808080808080 // 0x80 in every byte
	// gatherMul moves bit 8k (k = 0..7) of its multiplicand to bit
	// 56+k of the product without carries, so the top byte of the
	// product packs one flag per lane.
	gatherMul = 0x0102040810204080
)

// zeroLanes returns 0x80 in every byte of x that is zero and 0x00 in
// every other byte. Unlike the classic (x-0x01..)&^x&0x80.. trick it is
// exact: no byte's result depends on its neighbours.
func zeroLanes(x uint64) uint64 {
	return ^((x&lanes7f + lanes7f) | x | lanes7f)
}

// gather packs the per-byte flags of a zeroLanes-style mask (0x80 or
// 0x00 per byte) into one byte: bit k is byte k's flag.
func gather(m uint64) uint64 {
	return (m >> 7) * gatherMul >> 56
}

// classify parses the eight characters in word x (byte k = lane k)
// into per-lane flag masks (0x80 or 0x00 per byte): spec where the lane
// is '0' or '1', and ok, which is lanes80 exactly when every lane holds
// '0', '1', 'X', 'x' or '-'. A specified lane's value is its low bit
// ('1' is odd, '0' even), so spec & x<<7 flags the '1' lanes.
func classify(x uint64) (spec, ok uint64) {
	spec = zeroLanes((x | lanes01) ^ '1'*lanes01)
	ok = spec | zeroLanes((x|0x20*lanes01)^'x'*lanes01) | // 'X' or 'x'
		zeroLanes(x^'-'*lanes01)
	return spec, ok
}

// Parse builds a vector from a string of '0', '1', 'X'/'x'/'-'.
func Parse(s string) (*Vector, error) { return parse(s) }

// parse is Parse over either text representation, so ReadCubes can
// parse scanner bytes without a string copy per line.
func parse[T ~string | ~[]byte](s T) (*Vector, error) {
	v := New(len(s))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		spec, ok := classify(x)
		if ok != lanes80 {
			if err := parseBytes(v, s, i, i+8); err != nil {
				return nil, err
			}
			continue
		}
		w, off := i/64, uint(i%64)
		v.val[w] |= gather(spec&(x<<7)) << off
		v.care[w] |= gather(spec) << off
	}
	if err := parseBytes(v, s, i, len(s)); err != nil {
		return nil, err
	}
	return v, nil
}

// parseBytes is the byte-at-a-time parser for s[from:to]: the tail
// shorter than a word, and any word classify rejected.
func parseBytes[T ~string | ~[]byte](v *Vector, s T, from, to int) error {
	for i := from; i < to; i++ {
		bit := uint64(1) << uint(i%64)
		switch s[i] {
		case '0':
			v.care[i/64] |= bit
		case '1':
			v.care[i/64] |= bit
			v.val[i/64] |= bit
		case 'X', 'x', '-':
			// already X
		default:
			return fmt.Errorf("bitvec: invalid character %q at position %d", s[i], i)
		}
	}
	return nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) *Vector {
	v, err := Parse(s)
	invariant.Must(err)
	return v
}

// spread maps a byte to a word holding its bit k in the low bit of
// byte k.
var spread = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			t[b] |= uint64(b>>k&1) << (8 * k)
		}
	}
	return t
}()

// textLanes renders eight characters from one byte of each plane:
// 'X' where care is 0, else '0' or '1'. 'X'^('X'^'0') = '0', and
// '0'|1 = '1'; value bits are 0 wherever care is 0, so X lanes stay 'X'.
func textLanes(val, care uint64) uint64 {
	return ('X'*lanes01 ^ spread[care&0xff]*('X'^'0')) | spread[val&0xff]
}

// AppendText appends v's '0'/'1'/'X' rendering to dst and returns the
// extended slice, eight characters per step.
func (v *Vector) AppendText(dst []byte) []byte {
	start := len(dst)
	dst = slices.Grow(dst, v.n)[:start+v.n]
	out := dst[start:]
	i := 0
	for ; i+8 <= v.n; i += 8 {
		w, off := i/64, uint(i%64)
		binary.LittleEndian.PutUint64(out[i:], textLanes(v.val[w]>>off, v.care[w]>>off))
	}
	if i < v.n {
		var tail [8]byte
		w, off := i/64, uint(i%64)
		binary.LittleEndian.PutUint64(tail[:], textLanes(v.val[w]>>off, v.care[w]>>off))
		copy(out[i:], tail[:])
	}
	return dst
}

// String renders the vector as '0'/'1'/'X' characters.
func (v *Vector) String() string {
	return string(v.AppendText(make([]byte, 0, v.n)))
}

// maxLine caps one cube line (16 MiB). The scanner buffer starts at
// scanBuf and grows only as long lines demand.
const (
	maxLine = 1 << 24
	scanBuf = 64 << 10
)

// ReadCubes parses a text cube file: one cube per line of '0'/'1'/'X',
// blank lines and lines starting with '#' ignored. All cubes must have
// equal width. A line longer than 16 MiB fails with bufio.ErrTooLong.
func ReadCubes(r io.Reader) (*CubeSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, scanBuf), maxLine)
	var cs *CubeSet
	line := 0
	for sc.Scan() {
		line++
		s := bytes.TrimSpace(sc.Bytes())
		if len(s) == 0 || s[0] == '#' {
			continue
		}
		v, err := parse(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if cs == nil {
			cs = NewCubeSet(v.Len())
		}
		if err := cs.Add(v); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cs == nil {
		return nil, fmt.Errorf("bitvec: no cubes in input")
	}
	return cs, nil
}

// WriteCubes writes the set in the text format ReadCubes parses,
// rendering every cube into one reused line buffer.
func (cs *CubeSet) WriteCubes(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, c := range cs.Cubes {
		line = append(c.AppendText(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
