package bitvec

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Per-bit reference implementations: the codec and copies as they were
// before the word-parallel rewrite, one Get/Set per bit. The
// differential tests below hold the production routines to them.

func refParse(s string) (*Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			v.Set(i, Zero)
		case '1':
			v.Set(i, One)
		case 'X', 'x', '-':
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at position %d", s[i], i)
		}
	}
	return v, nil
}

func refString(v *Vector) string {
	var sb strings.Builder
	for i := 0; i < v.Len(); i++ {
		sb.WriteString(v.Get(i).String())
	}
	return sb.String()
}

// refCopy sets dst[dpos+i] = src[spos+i] for every specified bit.
func refCopy(dst *Vector, dpos int, src *Vector, spos, n int) {
	for i := 0; i < n; i++ {
		if b := src.Get(spos + i); b != X {
			dst.Set(dpos+i, b)
		}
	}
}

func refConcat(vs ...*Vector) *Vector {
	total := 0
	for _, v := range vs {
		total += v.Len()
	}
	out := New(total)
	pos := 0
	for _, v := range vs {
		refCopy(out, pos, v, 0, v.Len())
		pos += v.Len()
	}
	return out
}

func refSerializeAligned(cs *CubeSet, charBits int) *Vector {
	w := cs.Width
	if charBits > 1 {
		w = (w + charBits - 1) / charBits * charBits
	}
	out := New(w * len(cs.Cubes))
	for p, c := range cs.Cubes {
		refCopy(out, p*w, c, 0, c.Len())
	}
	return out
}

func refDeserializeAligned(stream *Vector, width, charBits int) []*Vector {
	w := width
	if charBits > 1 {
		w = (width + charBits - 1) / charBits * charBits
	}
	var out []*Vector
	for pos := 0; pos < stream.Len(); pos += w {
		c := New(width)
		refCopy(c, 0, stream, pos, width)
		out = append(out, c)
	}
	return out
}

// testWidths are the vector widths every differential test covers: the
// word and byte boundaries, plus a few random widths.
func testWidths(rng *rand.Rand) []int {
	ws := []int{0, 1, 7, 8, 63, 64, 65, 127, 128, 129}
	for i := 0; i < 6; i++ {
		ws = append(ws, rng.Intn(600))
	}
	return ws
}

// samePlanes compares two vectors word for word, including the unused
// bits of the last word, which the per-bit reference leaves clear.
func samePlanes(a, b *Vector) bool {
	return a.n == b.n && slices.Equal(a.val, b.val) && slices.Equal(a.care, b.care)
}

// randomText renders a random cube using every spelling of X.
func randomText(rng *rand.Rand, n int) string {
	const alphabet = "01Xx-"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func TestParseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testWidths(rng) {
		for trial := 0; trial < 20; trial++ {
			s := randomText(rng, n)
			if trial == 0 {
				s = strings.Repeat("x", n) // lowercase only
			} else if trial == 1 {
				s = strings.Repeat("-", n)
			}
			want, err := refParse(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Parse(s)
			if err != nil {
				t.Fatalf("Parse(%q): %v", s, err)
			}
			gotBytes, err := parse([]byte(s))
			if err != nil {
				t.Fatalf("parse([]byte %q): %v", s, err)
			}
			if !samePlanes(got, want) || !samePlanes(gotBytes, want) {
				t.Fatalf("width %d: Parse(%q) = %s, want %s", n, s, got, want)
			}
		}
	}
}

// TestParseInvalidEveryLane puts an invalid byte at every lane of every
// SWAR word (and in the byte-loop tail) and checks the error names the
// same byte and position as the per-bit parser. Bytes near the alphabet
// ('/', '2', 'Y', 'y', ',', '.') and with the high bit set probe the
// masks' exactness.
func TestParseInvalidEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bad := []byte{0x00, ' ', ',', '.', '/', '2', 'W', 'Y', 'w', 'y', 'z', 0x7f, 0x80, 0xb0, 0xb1, 0xd8, 0xf8, 0xad, 0xff}
	for _, n := range []int{1, 7, 8, 9, 24, 63, 64, 65, 130} {
		base := randomText(rng, n)
		for pos := 0; pos < n; pos++ {
			for _, c := range bad {
				s := []byte(base)
				s[pos] = c
				if pos+3 < n {
					s[pos+3] = '#' // a second error later in the word must not win
				}
				_, wantErr := refParse(string(s))
				_, err := Parse(string(s))
				_, errBytes := parse(s)
				if err == nil || errBytes == nil || err.Error() != wantErr.Error() || errBytes.Error() != wantErr.Error() {
					t.Fatalf("width %d, %q at %d: got %v / %v, want %v", n, c, pos, err, errBytes, wantErr)
				}
				if want := fmt.Sprintf("at position %d", pos); !strings.HasSuffix(err.Error(), want) {
					t.Fatalf("error %q does not end with %q", err, want)
				}
			}
		}
	}
}

// TestClassifyEveryByte runs every byte value through every lane of
// the SWAR classifier, with valid characters in the other lanes: the
// lane must be flagged valid exactly for the five alphabet characters
// and specified exactly for '0' and '1', without disturbing its
// neighbours. The byte-loop fallback would mask a classifier that
// wrongly rejects a valid character, so this pins the fast path itself.
func TestClassifyEveryByte(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for b := 0; b < 256; b++ {
			word := []byte("10Xx-01X")
			word[lane] = byte(b)
			var x uint64
			for k := 7; k >= 0; k-- {
				x = x<<8 | uint64(word[k])
			}
			spec, ok := classify(x)
			valid := strings.IndexByte("01Xx-", byte(b)) >= 0
			if want := uint64(0x80) << (8 * lane); (ok&want != 0) != valid || ok|want != lanes80 {
				t.Fatalf("lane %d byte %#x: ok mask %#x, valid=%v", lane, b, ok, valid)
			}
			specBits := gather(spec)
			for k, c := range word {
				if got := specBits>>uint(k)&1 == 1; got != (c == '0' || c == '1') {
					t.Fatalf("lane %d byte %#x: spec flag of lane %d (%q) = %v", lane, b, k, c, got)
				}
			}
		}
	}
}

func TestAppendTextMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testWidths(rng) {
		for _, xProb := range []float64{0, 0.3, 1} {
			v := randomVector(rng, n, xProb)
			want := refString(v)
			if got := v.String(); got != want {
				t.Fatalf("String = %q, want %q", got, want)
			}
			prefix := []byte("pre:")
			got := v.AppendText(prefix[:len(prefix):len(prefix)])
			if string(got) != "pre:"+want {
				t.Fatalf("AppendText = %q, want %q", got, "pre:"+want)
			}
			got = v.AppendText(make([]byte, 2, 2+n+16))
			if string(got[2:]) != want {
				t.Fatalf("AppendText with spare capacity = %q, want %q", got[2:], want)
			}
		}
	}
}

func TestConcatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ws := testWidths(rng)
	for trial := 0; trial < 50; trial++ {
		var vs []*Vector
		for k := rng.Intn(6); k >= 0; k-- {
			vs = append(vs, randomVector(rng, ws[rng.Intn(len(ws))], 0.4))
		}
		if got, want := Concat(vs...), refConcat(vs...); !samePlanes(got, want) {
			t.Fatalf("Concat = %s, want %s", got, want)
		}
	}
}

func TestAlignedSerializeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for charBits := 1; charBits <= 16; charBits++ {
		for _, width := range testWidths(rng) {
			if width == 0 {
				continue // a cube set has positive width
			}
			cs := NewCubeSet(width)
			for p := rng.Intn(5); p >= 0; p-- {
				if err := cs.Add(randomVector(rng, width, 0.5)); err != nil {
					t.Fatal(err)
				}
			}
			stream := cs.SerializeAligned(charBits)
			if want := refSerializeAligned(cs, charBits); !samePlanes(stream, want) {
				t.Fatalf("cc=%d width=%d: SerializeAligned = %s, want %s", charBits, width, stream, want)
			}
			// Deserialize both the X-carrying stream and a concrete one.
			for _, s := range []*Vector{stream, stream.Filled(FillRepeat)} {
				back, err := DeserializeAligned(s, width, charBits)
				if err != nil {
					t.Fatal(err)
				}
				want := refDeserializeAligned(s, width, charBits)
				if len(back.Cubes) != len(want) {
					t.Fatalf("cc=%d width=%d: %d cubes, want %d", charBits, width, len(back.Cubes), len(want))
				}
				for i := range want {
					if !samePlanes(back.Cubes[i], want[i]) {
						t.Fatalf("cc=%d width=%d cube %d: %s, want %s", charBits, width, i, back.Cubes[i], want[i])
					}
				}
			}
			if charBits == 1 {
				back, err := Deserialize(stream, width)
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range refDeserializeAligned(stream, width, 1) {
					if !samePlanes(back.Cubes[i], c) {
						t.Fatalf("Deserialize width=%d cube %d: %s, want %s", width, i, back.Cubes[i], c)
					}
				}
			}
		}
	}
}

// repeatReader yields an endless run of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

func TestReadCubesLineCap(t *testing.T) {
	_, err := ReadCubes(io.LimitReader(repeatReader('0'), maxLine+1))
	if err != bufio.ErrTooLong {
		t.Fatalf("ReadCubes of a %d-byte line: err = %v, want bufio.ErrTooLong", maxLine+1, err)
	}
}

// TestReadCubesSmallBodyAllocation pins that the scanner buffer starts
// small: parsing a few short cubes must not pay for a 1 MiB buffer.
func TestReadCubesSmallBodyAllocation(t *testing.T) {
	body := strings.Repeat("01XX10x-1\n", 16)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadCubes(strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 128<<10 {
		t.Fatalf("ReadCubes of a %d-byte body allocates %d bytes per call, want <= 128 KiB", len(body), perCall)
	}
}

// FuzzCubeText holds parse → render to the per-bit reference: the same
// error for invalid text, and for valid text the same planes, the same
// rendering, and a rendering that parses back to the same vector.
func FuzzCubeText(f *testing.F) {
	for _, s := range []string{"", "0", "01X10x-1", "01XX10x-1Xx", "0123", "XXXXXXXX2", strings.Repeat("10x-", 40)} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refParse(string(data))
		got, err := parse(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("parse(%q) err = %v, reference %v", data, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("parse(%q) err = %q, reference %q", data, err, wantErr)
			}
			return
		}
		if !samePlanes(got, want) {
			t.Fatalf("parse(%q) = %s, reference %s", data, got, want)
		}
		text := got.AppendText(nil)
		if string(text) != refString(want) {
			t.Fatalf("render = %q, reference %q", text, refString(want))
		}
		back, err := Parse(string(text))
		if err != nil || !samePlanes(back, got) {
			t.Fatalf("round trip of %q: %v, %v", text, back, err)
		}
	})
}
