package bitvec_test

import (
	"bytes"
	"io"
	"testing"

	"lzwtc/internal/bench"
	"lzwtc/internal/bitvec"
)

// The word-parallel glue microbenchmarks run on a paper circuit (s5378
// at C_C = 7, the paper's character width) and report ns per original
// test-set bit, the unit of perfbench's per-layer metrics.

const glueCharBits = 7

func glueCircuit(b *testing.B) *bitvec.CubeSet {
	b.Helper()
	p, err := bench.ByName("s5378")
	if err != nil {
		b.Fatal(err)
	}
	return p.Generate()
}

func reportNsPerBit(b *testing.B, bits int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bits), "ns/bit")
}

var (
	sinkSet    *bitvec.CubeSet
	sinkVector *bitvec.Vector
)

func BenchmarkParse(b *testing.B) {
	cs := glueCircuit(b)
	var text bytes.Buffer
	if err := cs.WriteCubes(&text); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := bitvec.ReadCubes(bytes.NewReader(text.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sinkSet = got
	}
	reportNsPerBit(b, cs.TotalBits())
}

func BenchmarkRender(b *testing.B) {
	cs := glueCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cs.WriteCubes(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerBit(b, cs.TotalBits())
}

func BenchmarkSerializeAligned(b *testing.B) {
	cs := glueCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVector = cs.SerializeAligned(glueCharBits)
	}
	reportNsPerBit(b, cs.TotalBits())
}

func BenchmarkDeserializeAligned(b *testing.B) {
	cs := glueCircuit(b)
	stream := cs.SerializeAligned(glueCharBits).Filled(bitvec.FillZero)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := bitvec.DeserializeAligned(stream, cs.Width, glueCharBits)
		if err != nil {
			b.Fatal(err)
		}
		sinkSet = got
	}
	reportNsPerBit(b, cs.TotalBits())
}
