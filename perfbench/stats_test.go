package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 0},       // not even the median has ten above it
		{20, 50},     // ranks 10 of 20: ten above; p75 leaves five
		{432, 95},    // p98 would leave 8
		{804, 98},    // p99 would leave 8
		{1000, 99},   // p99 leaves exactly ten
		{5642, 99.5}, // p99.9 would leave 5
		{10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && beyond(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", c.n, got, beyond(got, c.n), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 0: 1, 10: 1, 11: 2} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// Two pool workers running shards side by side cover 10..50
		// once, not 20+30 = 50 µs.
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		// A job that starts inside its submit span and outlives it.
		{"sticking out", []interval{{90, 120}, {-10, 5}}, 85},
		{"entirely after", []interval{{150, 200}}, 100},
		{"covering", []interval{{-5, 105}}, 0},
		{"mixed", []interval{{-10, 5}, {10, 30}, {20, 50}, {90, 120}}, 45},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSummarizeNormalisation feeds a phase with known ops and counter
// snapshots through the same reduction a run uses.
func TestSummarizeNormalisation(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) counters { return counters{at: t0.Add(time.Duration(ms) * time.Millisecond)} }
	p := &phase{window: 2, clients: 1}
	p.starts = []counters{at(0), at(1000), at(3000)}
	p.ends = []counters{at(1000), at(3000), at(4000)}
	for i, c := range []struct {
		cpu    time.Duration
		allocs uint64
	}{{2 * time.Second, 4e6}, {time.Second, 2e6}, {500 * time.Millisecond, 1e6}} {
		p.ends[i].cpu, p.ends[i].allocs = p.starts[i].cpu+c.cpu, p.starts[i].allocs+c.allocs
	}
	p.start, p.end = p.starts[0], p.ends[2]
	p.calib = []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	p.peaks = []uint64{1 << 20, 3 << 20, 2 << 20}
	p.lows = []uint64{1 << 19, 1 << 20, 1 << 18}
	// Two inputs of 1 Mbit each, alternating; input 0 decompresses in
	// 100/200/300 ms, input 1 in 400/500/600 ms; compress takes 100 ms.
	for i := 0; i < 6; i++ {
		p.ops = append(p.ops, op{input: i % 2, compress: 100 * time.Millisecond,
			decompress: time.Duration(100*(i/2+1)+300*(i%2)) * time.Millisecond,
			bits:       1e6, compBits: 25e4, ok: true})
	}
	s := p.summarize(10, 50)
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("compress_ns_per_bit ((100+100) ms ÷ 2 Mbit)", s.CompressNsPerBit, 100)
	check("decompress_ns_per_bit ((100+400) ms input p10s ÷ 2 Mbit)", s.DecompressNsPerBit, 250)
	check("mbit_per_s (2 Mbit ÷ (100+100 compress + 100+400 decompress) ms p10s)", s.MbitPerS, 2e6/0.7/1e6)
	check("decompress_latency_ms (mean of the input p10s 100 and 400)", s.DecompressLatency, 250)
	check("cpu_ns_per_bit (median of 1000, 500, 250)", s.CPUNsPerBit, 500)
	check("alloc_bytes_per_bit (median of 2, 1, 0.5)", s.AllocBytesPerBit, 1)
	check("ratio_pct", s.RatioPct, 75)
	check("decompress p50, report line (mean of the input medians 200 and 500)", s.DecompressP50, 350)
	check("decompress tail (p50 over all six ops)", s.DecompressTail, 300)
	check("whole-phase Mbit/s", s.WallMbitPerS, 1.5)
	check("calibration median", s.CalibMS, 2)
	check("live_heap_floor_mb (median of the window lows 0.5, 1, 0.25 MiB)", s.LiveHeapFloorMB, 0.5)
	check("peak live heap (median of the window peaks 1, 3, 2 MiB)", s.PeakLiveHeapMB, 2)
	if s.Windows != 3 || s.Ops != 6 || s.Failed != 0 {
		t.Errorf("windows %d ops %d failed %d, want 3 6 0", s.Windows, s.Ops, s.Failed)
	}
}

func TestHostIndexNormalisation(t *testing.T) {
	if got := (pins{CalibRefMS: 4}).hostIndex(5); got != 1.25 {
		t.Errorf("host index = %v, want 1.25", got)
	}
	if got := (pins{}).hostIndex(5); got != 1 {
		t.Errorf("unpinned host index = %v, want 1", got)
	}
	set := newMetricSet(endToEnd, 2) // a host twice as slow as the reference
	for name, v := range map[string]float64{"setup_s": 4, "compress_latency_ms": 8, "cpu_ns_per_bit": 60,
		"mbit_per_s": 3, "ratio_pct": 70, "alloc_bytes_per_bit": 10, "live_heap_floor_mb": 12} {
		set.put(name, v)
	}
	for name, want := range map[string]float64{"setup_s": 2, "compress_latency_ms": 4, "cpu_ns_per_bit": 30,
		"mbit_per_s": 6, "ratio_pct": 70, "alloc_bytes_per_bit": 10, "live_heap_floor_mb": 12} {
		if got := set.m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestReplayCountsPerBitAndChar checks that the layer replay's work
// counts — the denominators of every per-bit, per-char and per-code
// metric — are the test set's bits and the compressor's own counts.
func TestReplayCountsPerBitAndChar(t *testing.T) {
	c, err := generate("svc_jobs_dict", 1)
	if err != nil {
		t.Fatal(err)
	}
	c.inputs = c.inputs[:1]
	if err := c.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	in := c.inputs[0]
	var l layers
	replayOp(nil, in, &l)
	if l.failed != 0 || l.ops != 1 {
		t.Fatalf("replay: %d ops, %d failed", l.ops, l.failed)
	}
	if l.bits != int64(in.set.TotalBits()) {
		t.Errorf("bits = %d, want the set's %d", l.bits, in.set.TotalBits())
	}
	wantFrames := (len(in.set.Cubes) + jobShard - 1) / jobShard
	if l.frames != int64(wantFrames) {
		t.Errorf("frames = %d, want %d", l.frames, wantFrames)
	}
	if want := l.codes * int64(in.cfg.CodeBits()); want != in.compBits {
		t.Errorf("codes × C_E = %d, reference compressed bits %d", want, in.compBits)
	}
	// Every frame is padded to whole characters per pattern.
	padded := int64(len(in.set.Cubes)) * int64((in.set.Width+charBits-1)/charBits)
	if l.chars != padded {
		t.Errorf("chars = %d, want %d", l.chars, padded)
	}
	if l.containerBytes != int64(len(in.container)) {
		t.Errorf("container bytes = %d, want %d", l.containerBytes, len(in.container))
	}
}
