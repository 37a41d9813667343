package core

import (
	"context"
	"testing"

	"lzwtc/internal/telemetry"
)

// traceCtx is the worst-case disabled-tracing context: a span identity
// is present (so the ctx lookup is not trivially empty) but there is no
// recorder to consume it.
func traceCtx() context.Context {
	return telemetry.ContextWithSpan(context.Background(),
		telemetry.SpanContext{TraceID: 1, SpanID: 2})
}

// BenchmarkCompressTraceDisabled is the acceptance benchmark for the
// trace-instrumented disabled path: Compress with WithTrace(ctx, nil),
// ctx carrying a span context. scripts/check_trace_overhead.sh
// gates it against BenchmarkCompressTelemetryDisabled at <= 3%.
func BenchmarkCompressTraceDisabled(b *testing.B) {
	stream, cfg := overheadWorkload()
	ctx := traceCtx()
	b.SetBytes(int64(stream.Len() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(stream, cfg, WithTrace(ctx, nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTraceDisabledAllocParity: with a nil recorder, the ctx-carrying
// entry point must allocate exactly as much as the plain one — the
// disabled trace path is a pointer check, not a span.
func TestTraceDisabledAllocParity(t *testing.T) {
	stream, cfg := overheadWorkload()
	ctx := traceCtx()
	// Warm the dict arena so both measurements recycle rather than
	// racing each other for the first fresh allocation.
	if _, err := Compress(stream, cfg); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(10, func() {
		if _, err := Compress(stream, cfg); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(10, func() {
		if _, err := Compress(stream, cfg, WithTrace(ctx, nil)); err != nil {
			t.Fatal(err)
		}
	})
	// Averaging over runs absorbs a stray GC emptying the dict arena
	// mid-measurement; a real per-op span allocation would show as a
	// full +1.
	if traced > base+0.5 {
		t.Fatalf("disabled tracing allocates: %.1f allocs/op via ctx path, %.1f via plain path", traced, base)
	}
}
