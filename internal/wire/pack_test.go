package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"lzwtc/internal/bench"
	"lzwtc/internal/core"
)

// refPackCodes and refUnpackCodes are the bit-at-a-time packers the
// accumulator versions replaced; the tests below hold the production
// routines to them bit for bit.
func refPackCodes(codes []core.Code, cb int) []byte {
	out := make([]byte, (len(codes)*cb+7)/8)
	bitPos := 0
	for _, c := range codes {
		for i := cb - 1; i >= 0; i-- {
			if c>>uint(i)&1 != 0 {
				out[bitPos>>3] |= 1 << uint(7-bitPos&7)
			}
			bitPos++
		}
	}
	return out
}

func refUnpackCodes(data []byte, n, cb int) []core.Code {
	codes := make([]core.Code, n)
	bitPos := 0
	for i := range codes {
		var v core.Code
		for j := 0; j < cb; j++ {
			v <<= 1
			if data[bitPos>>3]>>uint(7-bitPos&7)&1 != 0 {
				v |= 1
			}
			bitPos++
		}
		codes[i] = v
	}
	return codes
}

// packCounts are the code counts every width is tried at: the byte and
// word boundaries of the packed stream, plus random counts.
func packCounts(rng *rand.Rand) []int {
	ns := []int{0, 1, 7, 8, 63, 64, 65, 127, 128, 129}
	for i := 0; i < 4; i++ {
		ns = append(ns, rng.Intn(1000))
	}
	return ns
}

func TestPackCodesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for cb := 1; cb <= 24; cb++ {
		for _, n := range packCounts(rng) {
			codes := make([]core.Code, n)
			for i := range codes {
				// Codes wider than cb exercise the low-bits-only rule.
				codes[i] = core.Code(rng.Uint32())
				if i%3 != 0 {
					codes[i] &= 1<<uint(cb) - 1
				}
			}
			packed := packCodes(codes, cb)
			if want := refPackCodes(codes, cb); !bytes.Equal(packed, want) {
				t.Fatalf("cb=%d n=%d: packCodes = %x, want %x", cb, n, packed, want)
			}
			// Unpack the packed codes, and random bytes with a spare
			// tail, against the reference.
			noise := make([]byte, len(packed)+rng.Intn(9))
			rng.Read(noise)
			for _, data := range [][]byte{packed, noise} {
				got, err := unpackCodes(data, n, cb)
				if err != nil {
					t.Fatalf("cb=%d n=%d: unpackCodes: %v", cb, n, err)
				}
				want := refUnpackCodes(data, n, cb)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cb=%d n=%d: code %d = %d, want %d", cb, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPackCodesWideFields covers widths above core.Code's 32 bits,
// which unpackCodes still accepts up to 64: the field packs as leading
// zeros and unpacks to its low 32 bits, as the bit-at-a-time packer did.
func TestPackCodesWideFields(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cb := range []int{25, 31, 32, 33, 40, 63, 64} {
		codes := make([]core.Code, 37)
		for i := range codes {
			codes[i] = core.Code(rng.Uint32())
		}
		packed := packCodes(codes, cb)
		if want := refPackCodes(codes, cb); !bytes.Equal(packed, want) {
			t.Fatalf("cb=%d: packCodes = %x, want %x", cb, packed, want)
		}
		noise := make([]byte, len(packed))
		rng.Read(noise)
		got, err := unpackCodes(noise, len(codes), cb)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range refUnpackCodes(noise, len(codes), cb) {
			if got[i] != w {
				t.Fatalf("cb=%d: code %d = %d, want %d", cb, i, got[i], w)
			}
		}
	}
}

// FuzzPackCodes holds both packers to the reference on arbitrary bytes:
// the data is unpacked as codes of a fuzzed width, compared with the
// per-bit unpacker, then repacked and compared with the per-bit packer.
func FuzzPackCodes(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0x00, 0xa5}, uint8(7))
	f.Add([]byte("a longer run of arbitrary code bytes"), uint8(11))
	f.Add(bytes.Repeat([]byte{0x5a}, 40), uint8(24))
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		cb := int(w)%64 + 1
		n := len(data) * 8 / cb
		got, err := unpackCodes(data, n, cb)
		if err != nil {
			t.Fatalf("unpackCodes(%d bytes, n=%d, cb=%d): %v", len(data), n, cb, err)
		}
		want := refUnpackCodes(data, n, cb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cb=%d: code %d = %d, want %d", cb, i, got[i], want[i])
			}
		}
		if packed, ref := packCodes(got, cb), refPackCodes(got, cb); !bytes.Equal(packed, ref) {
			t.Fatalf("cb=%d: packCodes = %x, want %x", cb, packed, ref)
		}
	})
}

// benchCodes compresses the s5378 paper circuit at C_C = 7 and returns
// its code stream and code width.
func benchCodes(b *testing.B) ([]core.Code, int) {
	b.Helper()
	p, err := bench.ByName("s5378")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{CharBits: 7, DictSize: p.DictSize, EntryBits: 64}
	res := compressSet(b, p.Generate(), cfg)
	return res.Codes, cfg.CodeBits()
}

var sinkCodes []core.Code

func BenchmarkPackCodes(b *testing.B) {
	codes, cb := benchCodes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = packCodes(codes, cb)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codes)), "ns/code")
}

func BenchmarkUnpackCodes(b *testing.B) {
	codes, cb := benchCodes(b)
	packed := packCodes(codes, cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := unpackCodes(packed, len(codes), cb)
		if err != nil {
			b.Fatal(err)
		}
		sinkCodes = got
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codes)), "ns/code")
}

var sinkBytes []byte
