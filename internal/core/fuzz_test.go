package core

import (
	"bytes"
	"testing"

	"lzwtc/internal/bitvec"
)

// fuzzConfig derives a valid Config from six seed bytes, covering every
// fill/tie/full policy, bounded and unbounded entries, and dictionary
// sizes from the literal minimum up to minimum+255.
func fuzzConfig(seed []byte) Config {
	var b [6]byte
	copy(b[:], seed)
	cc := int(b[0]%4) + 1
	cfg := Config{
		CharBits: cc,
		DictSize: 1<<uint(cc) + int(b[1]),
		Fill:     FillPolicy(b[3] % 3),
		Tie:      TieBreak(b[4] % 3),
		Full:     FullPolicy(b[5] % 2),
	}
	if b[2]%2 == 1 {
		// Bounded decompressor memory: C_MDATA a small multiple of C_C.
		cfg.EntryBits = cc * (2 + int(b[2]%8))
	}
	return cfg
}

// fuzzStream decodes the remaining input as a three-valued stream, two
// bits per symbol: 00 -> 0, 01 -> 1, anything else -> X. 0xff bytes
// therefore decode to all-X cubes, the case the paper's dynamic
// assignment exists for.
func fuzzStream(data []byte) *bitvec.Vector {
	const maxBits = 2048
	n := 4 * len(data)
	if n > maxBits {
		n = maxBits
	}
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		switch data[i/4] >> uint(2*(i%4)) & 3 {
		case 0:
			v.Set(i, bitvec.Zero)
		case 1:
			v.Set(i, bitvec.One)
		default:
			v.Set(i, bitvec.X)
		}
	}
	return v
}

// FuzzRoundTrip checks the full pipeline on arbitrary streams and
// configurations: Decompress must yield a fully specified stream
// compatible with every care bit of the input. (The Pack -> unpack leg
// is internal/wire's TestPackUnpackCodes and FuzzWireRoundTrip.)
func FuzzRoundTrip(f *testing.F) {
	cfgPrefix := func(b ...byte) []byte { return b }
	f.Add(append(cfgPrefix(1, 0, 0, 0, 0, 0), 0x00, 0x11, 0x44, 0x00)) // 2-bit chars, fully specified
	f.Add(append(cfgPrefix(2, 8, 3, 1, 1, 1), bytes.Repeat([]byte{0xff}, 32)...) /* all-X cubes */)
	f.Add(append(cfgPrefix(3, 255, 0, 2, 2, 0), bytes.Repeat([]byte{0x1b}, 64)...))     // repeating pattern, big dict
	f.Add(append(cfgPrefix(0, 1, 1, 0, 0, 1), 0xf0, 0x0f, 0xcc, 0x33, 0x55))            // mixed X and care
	f.Add(append(cfgPrefix(3, 0, 5, 1, 0, 1), bytes.Repeat([]byte{0x44, 0xff}, 40)...)) // reset-prone
	f.Add(cfgPrefix(1, 2, 3, 4, 5, 6))                                                  // empty stream

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := fuzzConfig(data[:6])
		if err := cfg.Validate(); err != nil {
			t.Fatalf("derived config invalid: %v", err)
		}
		stream := fuzzStream(data[6:])

		res, err := Compress(stream, cfg)
		if err != nil {
			t.Fatalf("Compress: %v", err)
		}

		out, err := Decompress(res.Codes, cfg, res.InputBits)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		if out.Len() != stream.Len() {
			t.Fatalf("Decompress length %d, want %d", out.Len(), stream.Len())
		}
		if !stream.CompatibleWith(out) {
			t.Fatalf("decompressed stream violates a care bit of the input")
		}
	})
}
