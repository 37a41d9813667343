package lzwtc

import (
	"context"

	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

// Recorder re-exports the telemetry recorder so instrumented calls are
// usable from the public API (the same in-module aliasing as
// DownloadStats).
type Recorder = telemetry.Recorder

// Option adjusts one call: Compress, Decompress, the wire writers and
// readers, and SimulateDownload each take trailing options. Options are
// plain values rather than closures, so a call without options — or
// with a disabled WithTrace — allocates exactly what the bare call does.
type Option struct {
	ctx context.Context
	rec *Recorder
	pre *Preload
}

// WithTrace instruments a call through rec: per-code histograms into
// its registry, run records to its sinks, and — when ctx carries a
// trace span — the call's phases (serialize, dictionary build, match
// loop, wire framing, decode, deserialize) as child spans, so a request trace
// attributes the whole pipeline. A nil recorder is the uninstrumented
// path.
func WithTrace(ctx context.Context, rec *Recorder) Option {
	return Option{ctx: ctx, rec: rec}
}

// WithPreload starts Compress from a warm dictionary, and has
// Decompress reinstall it. The decompressor must use the same preload:
// pair it with WriteWireDict / DecompressWireDict so the container
// itself names the dictionary. The wire readers take the dictionary
// from the container and ignore this option.
func WithPreload(pre *Preload) Option {
	return Option{pre: pre}
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
		if op.pre != nil {
			o.pre = op.pre
		}
	}
	return o
}

// trace forwards the trace option to the core calls.
func (o Option) trace() core.Option { return core.WithTrace(o.ctx, o.rec) }
