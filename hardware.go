package lzwtc

import (
	"lzwtc/internal/ate"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
)

// DownloadStats is the cycle accounting of a simulated test download
// through the hardware decompressor.
type DownloadStats = decomp.Stats

// SimulateDownload runs the compressed test set through the
// cycle-accurate hardware decompressor model (Figure 5 of the paper) at
// the given internal-to-tester clock ratio, on a dedicated dictionary
// memory sized from the configuration. It returns the fully specified
// test set delivered to the scan chain, the cycle statistics, and the
// download-time improvement over raw scan-in
// (1 - compressedCycles/rawCycles).
//
// The configuration must be hardware-realizable: bounded entries
// (EntryBits > 0) and the freeze dictionary-full policy.
//
// WithTrace's recorder sees the model charge cycles, memory reads and
// load stalls to individual scan patterns (decomp.pattern events) and
// fold its run totals into its registry.
func SimulateDownload(r *Result, clockRatio int, opts ...Option) (*TestSet, *DownloadStats, float64, error) {
	cfg := r.Stream.Cfg
	words, width := decomp.MemoryGeometry(cfg)
	shared := mem.NewShared(mem.New(words, width))
	shared.Select(mem.SrcLZW)
	hw, err := decomp.New(cfg, clockRatio, shared)
	if err != nil {
		return nil, nil, 0, err
	}
	hw.SetRecorder(options(opts).rec)
	// Pattern boundaries in the scan stream fall on the aligned width
	// (each pattern is padded to a character boundary).
	cc := cfg.CharBits
	hw.SetPatternBits((r.Width + cc - 1) / cc * cc)
	stream, stats, err := hw.Run(r.Stream.Pack(), len(r.Stream.Codes), r.Stream.InputBits)
	if err != nil {
		return nil, nil, 0, err
	}
	ts, err := DecompressedSetFromStream(stream, r)
	if err != nil {
		return nil, nil, 0, err
	}
	return ts, stats, ate.Improvement(r.OriginalBits, stats.TesterCycles), nil
}

// PredictDownloadCycles computes the download time in tester cycles in
// closed form, without running the cycle simulation — useful for
// parameter sweeps. It agrees exactly with SimulateDownload.
func PredictDownloadCycles(r *Result, clockRatio int) (int, error) {
	tc, _, err := decomp.Predict(r.Stream.Codes, r.Stream.Cfg, clockRatio)
	return tc, err
}
