package core

import (
	"context"

	"lzwtc/internal/telemetry"
)

// Option adjusts one Compress or Decompress call. Options are plain
// values rather than closures: a call with no options, or with a
// disabled WithTrace, allocates exactly what the bare call does.
type Option struct {
	ctx context.Context
	rec *telemetry.Recorder
}

// WithTrace instruments a call through rec, attributing its phases as
// child spans of the trace span ctx carries (if any). A nil recorder
// keeps the uninstrumented fast path and never touches ctx.
func WithTrace(ctx context.Context, rec *telemetry.Recorder) Option {
	return Option{ctx: ctx, rec: rec}
}

// options folds a call's options into one value; a later option's
// non-zero fields win.
func options(opts []Option) Option {
	o := Option{ctx: context.Background()}
	for _, op := range opts {
		if op.ctx != nil {
			o.ctx = op.ctx
		}
		if op.rec != nil {
			o.rec = op.rec
		}
	}
	return o
}

// EventCompressRun is the event kind of the one summary record each
// compression run emits through a telemetry recorder. Per-step data
// never rides the event stream: it goes to the CompressTrace and
// DecompressTrace hooks only.
const EventCompressRun = "compress.run"

// Registry metric names for the compressor. Counters aggregate across
// runs; the histograms observe per-code quantities (the raw material of
// the paper's Tables 1 and 5: how long the emitted strings get, and how
// quickly the N-code dictionary fills).
const (
	MetricCompressRuns          = "lzwtc_compress_runs_total"
	MetricCompressEmptyRuns     = "lzwtc_compress_empty_runs_total"
	MetricCompressInputBits     = "lzwtc_compress_input_bits_total"
	MetricCompressChars         = "lzwtc_compress_chars_total"
	MetricCompressCodes         = "lzwtc_compress_codes_total"
	MetricCompressCompressed    = "lzwtc_compress_compressed_bits_total"
	MetricCompressLiteralCodes  = "lzwtc_compress_literal_codes_total"
	MetricCompressStringCodes   = "lzwtc_compress_string_codes_total"
	MetricCompressDictEntries   = "lzwtc_compress_dict_entries_total"
	MetricCompressDictResets    = "lzwtc_compress_dict_resets_total"
	MetricCompressResidualFills = "lzwtc_compress_residual_fills_total"
	MetricCompressDynamicFills  = "lzwtc_compress_dynamic_fills_total"
	MetricCompressMatchLen      = "lzwtc_compress_match_len_chars"
	MetricCompressOccupancy     = "lzwtc_compress_dict_occupancy"
	MetricCompressRatio         = "lzwtc_compress_ratio"
)

// Trace span names for the core phases. These appear as span records in
// request traces and (via telemetry.PhaseMetricName) as phase-duration
// histograms, so the compressor's internal cost structure is visible
// per request: how long dictionary construction took versus the match
// loop itself.
const (
	SpanSerialize   = "core.serialize"   // cube-set serialization into the stream
	SpanDictBuild   = "core.dict_build"  // dictionary acquisition/preload
	SpanMatchLoop   = "core.match_loop"  // the Figure 3 compression loop
	SpanDecode      = "core.decode"      // one frame's software decompression
	SpanDeserialize = "core.deserialize" // decoded stream split back into cubes
)

// Dictionary arena metrics: how often a run reused a pooled dictionary
// versus allocating fresh (see arena.go). High recycle-to-miss ratios
// mean the batch/shard pipelines are running allocation-free.
const (
	MetricDictPoolRecycles = "lzwtc_dict_pool_recycles_total"
	MetricDictPoolMisses   = "lzwtc_dict_pool_misses_total"
)

// MatchLenBuckets returns the histogram bounds for emitted-string
// lengths, in characters. The paper's C_MDATA sweep (Table 5) spans
// 9–73 characters per entry at C_C=7, so the tail buckets cover it.
func MatchLenBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96}
}

// OccupancyBuckets returns the histogram bounds for dictionary
// occupancy, as the filled fraction of the N−2^C_C string-code space.
func OccupancyBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}
}

// compressMetrics holds the per-code hot-loop instruments, resolved
// once per run so the loop never touches the registry by name. A nil
// *compressMetrics is the disabled path: one pointer check per emitted
// code.
type compressMetrics struct {
	matchLen    *telemetry.Histogram
	occupancy   *telemetry.Histogram
	stringSpace float64 // N − 2^C_C, the occupancy denominator
}

func newCompressMetrics(rec *telemetry.Recorder, cfg Config) *compressMetrics {
	reg := rec.Registry()
	if reg == nil {
		return nil
	}
	return &compressMetrics{
		matchLen:    reg.Histogram(MetricCompressMatchLen, "emitted string length in characters", MatchLenBuckets()),
		occupancy:   reg.Histogram(MetricCompressOccupancy, "dictionary occupancy fraction at each code emission", OccupancyBuckets()),
		stringSpace: float64(cfg.DictSize - cfg.Literals()),
	}
}

// observeEmit records one code emission: its match length and the
// dictionary occupancy at that moment. used is the current string-entry
// count.
func (m *compressMetrics) observeEmit(matchChars, used int) {
	m.matchLen.Observe(float64(matchChars))
	occ := 1.0
	if m.stringSpace > 0 {
		occ = float64(used) / m.stringSpace
	}
	m.occupancy.Observe(occ)
}

// recordCompressRun folds a finished run's Stats into the recorder:
// aggregate counters, the last-run ratio gauge, and one EventCompressRun
// event. Zero-input runs are explicit — the event carries empty=true
// and the empty-runs counter increments — rather than hiding behind
// Stats.Ratio's silent 0.
func recordCompressRun(rec *telemetry.Recorder, st Stats) {
	if !rec.Enabled() {
		return
	}
	if reg := rec.Registry(); reg != nil {
		reg.Counter(MetricCompressRuns, "compression runs").Inc()
		if st.InputBits == 0 {
			reg.Counter(MetricCompressEmptyRuns, "zero-input compression runs").Inc()
		}
		reg.Counter(MetricCompressInputBits, "uncompressed input bits").Add(int64(st.InputBits))
		reg.Counter(MetricCompressChars, "characters consumed").Add(int64(st.Chars))
		reg.Counter(MetricCompressCodes, "codes emitted").Add(int64(st.CodesEmitted))
		reg.Counter(MetricCompressCompressed, "compressed output bits").Add(int64(st.CompressedBits))
		reg.Counter(MetricCompressLiteralCodes, "codes in the literal range").Add(int64(st.LiteralCodes))
		reg.Counter(MetricCompressStringCodes, "codes in the dictionary range").Add(int64(st.StringCodes))
		reg.Counter(MetricCompressDictEntries, "dictionary entries created").Add(int64(st.DictEntries))
		reg.Counter(MetricCompressDictResets, "FullReset occurrences").Add(int64(st.DictResets))
		reg.Counter(MetricCompressResidualFills, "characters concretized by the fill policy").Add(int64(st.ResidualFills))
		reg.Counter(MetricCompressDynamicFills, "X-laden characters concretized by a dictionary walk").Add(int64(st.DynamicFills))
		reg.Gauge(MetricCompressRatio, "last run compression ratio").Set(st.Ratio())
	}
	rec.Emit(EventCompressRun,
		telemetry.F("empty", st.Empty()),
		telemetry.F("ratio", st.Ratio()),
		telemetry.F("stats", st),
	)
}
