package telemetry

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanContextWireRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 0xdeadbeef01, SpanID: 0x42}
	s := sc.String()
	if len(s) != 33 || s[16] != '-' {
		t.Fatalf("wire form %q has wrong shape", s)
	}
	got, ok := ParseSpanContext(s)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}

	bad := []string{
		"",
		"short",
		strings.Repeat("0", 33), // no dash
		strings.Repeat("z", 16) + "-" + strings.Repeat("0", 15) + "1", // bad hex trace
		strings.Repeat("0", 15) + "1-" + strings.Repeat("z", 16),      // bad hex span
		strings.Repeat("0", 16) + "-" + strings.Repeat("0", 15) + "1", // zero trace id
		strings.Repeat("0", 15) + "1-" + strings.Repeat("0", 16),      // zero span id
		sc.String() + "x", // trailing garbage
	}
	for _, s := range bad {
		if _, ok := ParseSpanContext(s); ok {
			t.Errorf("ParseSpanContext(%q) accepted malformed input", s)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("empty context reported a span")
	}
	// An invalid span context stored in ctx must not surface.
	if _, ok := SpanFromContext(ContextWithSpan(ctx, SpanContext{})); ok {
		t.Fatal("invalid span context surfaced from ctx")
	}
	sc := SpanContext{TraceID: 7, SpanID: 9}
	if got, ok := SpanFromContext(ContextWithSpan(ctx, sc)); !ok || got != sc {
		t.Fatalf("span context: got %+v ok=%v", got, ok)
	}

	if id := RequestIDFromContext(ctx); id != "" {
		t.Fatalf("empty context request id = %q", id)
	}
	if got := RequestIDFromContext(ContextWithRequestID(ctx, "req-1")); got != "req-1" {
		t.Fatalf("request id = %q", got)
	}
	// Empty IDs are not stored.
	if ContextWithRequestID(ctx, "") != ctx {
		t.Fatal("empty request id allocated a new context")
	}

	if id := NewRequestID(); len(id) != 16 {
		t.Fatalf("NewRequestID() = %q, want 16 hex chars", id)
	}
}

// traceClock is a deterministic recorder clock advancing 1ms per call.
func traceClock() func() time.Time {
	base := time.Unix(1000, 0)
	n := 0
	return func() time.Time { n++; return base.Add(time.Duration(n) * time.Millisecond) }
}

func TestStartSpanParentChildLinkage(t *testing.T) {
	var events []Event
	rec := NewWithClock(NewRegistry(), traceClock(),
		SinkFunc(func(ev Event) { events = append(events, ev) })).WithProcess("testproc")

	ctx := ContextWithRequestID(context.Background(), "req-42")
	rctx, root := rec.StartSpan(ctx, "root.phase")
	rsc, ok := SpanFromContext(rctx)
	if !ok || rsc != root.Context() {
		t.Fatalf("root ctx carries %+v, span is %+v", rsc, root.Context())
	}
	_, child := rec.StartSpan(rctx, "child.phase")
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child did not inherit the trace id")
	}
	child.End(F("extra", 3))
	root.End()

	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	crec, ok := SpanRecordFromEvent(events[0])
	if !ok {
		t.Fatalf("child event kind %q undecodable", events[0].Kind)
	}
	rrec, _ := SpanRecordFromEvent(events[1])
	if crec.ParentID != rrec.SpanID {
		t.Fatalf("child parent_id %q != root span_id %q", crec.ParentID, rrec.SpanID)
	}
	if crec.TraceID != rrec.TraceID {
		t.Fatal("child and root trace ids differ")
	}
	if rrec.ParentID != "" {
		t.Fatalf("root has parent_id %q", rrec.ParentID)
	}
	if crec.Process != "testproc" || crec.RequestID != "req-42" {
		t.Fatalf("child proc/request = %q/%q", crec.Process, crec.RequestID)
	}
	if crec.Attrs["extra"] != "3" {
		t.Fatalf("extra field not in attrs: %+v", crec.Attrs)
	}
	if crec.DurUS <= 0 || crec.StartUnixUS <= 0 {
		t.Fatalf("timing not recorded: %+v", crec)
	}

	// Ending a span observes the phase histogram under its name.
	snap := rec.Registry().Snapshot()
	if h, ok := snap.HistogramNamed(PhaseMetricName("child.phase")); !ok || h.Count != 1 {
		t.Fatalf("phase histogram for child.phase: ok=%v %+v", ok, h)
	}

	// End is idempotent: a second End (deferred backup) emits nothing.
	child.End()
	if len(events) != 2 {
		t.Fatalf("double End emitted: %d events", len(events))
	}
}

func TestStartSpanNilRecorderZeroCost(t *testing.T) {
	var rec *Recorder
	ctx := ContextWithSpan(context.Background(), SpanContext{TraceID: 1, SpanID: 2})
	octx, sp := rec.StartSpan(ctx, "anything")
	if octx != ctx {
		t.Fatal("nil recorder changed the context")
	}
	if sp != nil {
		t.Fatal("nil recorder returned a live span")
	}
	sp.End() // must not panic
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}

	allocs := testing.AllocsPerRun(200, func() {
		c, sp := rec.StartSpan(ctx, "hot.path")
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan/End allocates %.1f per op, want 0", allocs)
	}
}

func TestTraceBufferRingAndCaps(t *testing.T) {
	b := NewTraceBuffer(2)
	emit := func(trace, span string) {
		b.Emit(Event{Kind: EventTraceSpan, Fields: []Field{
			F("trace_id", trace), F("span_id", span), F("name", "n"),
			F("start_unix_us", int64(1)), F("dur_us", int64(1)),
		}})
	}
	// Non-span events are ignored.
	b.Emit(Event{Kind: "step", Fields: []Field{F("trace_id", "t0")}})
	if b.Len() != 0 {
		t.Fatal("non-span event retained")
	}

	emit("t1", "s1")
	emit("t2", "s2")
	emit("t1", "s3") // appends to existing t1, no eviction
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	emit("t3", "s4") // evicts t1 (oldest)
	recent := b.Recent(10)
	if len(recent) != 2 {
		t.Fatalf("recent = %d traces, want 2", len(recent))
	}
	if recent[0].TraceID != "t3" || recent[1].TraceID != "t2" {
		t.Fatalf("recent order = %s,%s; want t3,t2 (newest first)", recent[0].TraceID, recent[1].TraceID)
	}

	// Recent(n) bounds and copies.
	one := b.Recent(1)
	if len(one) != 1 || one[0].TraceID != "t3" {
		t.Fatalf("Recent(1) = %+v", one)
	}
	one[0].Spans[0].Name = "mutated"
	if b.Recent(1)[0].Spans[0].Name == "mutated" {
		t.Fatal("Recent returned shared span storage")
	}

	// Per-trace span cap.
	big := NewTraceBuffer(1)
	for i := 0; i < maxSpansPerTrace+50; i++ {
		big.Emit(Event{Kind: EventTraceSpan, Fields: []Field{
			F("trace_id", "big"), F("span_id", "s"), F("name", "n"),
		}})
	}
	if n := len(big.Recent(1)[0].Spans); n != maxSpansPerTrace {
		t.Fatalf("trace grew to %d spans, cap is %d", n, maxSpansPerTrace)
	}
}

func TestEmitPanicContainment(t *testing.T) {
	var healthy int
	bomb := SinkFunc(func(Event) { panic("sink bug") })
	rec := New(nil, bomb, SinkFunc(func(Event) { healthy++ }))

	rec.Emit("e1") // bomb panics, gets removed; healthy still runs
	rec.Emit("e2") // bomb slot is nil now
	if healthy != 2 {
		t.Fatalf("healthy sink saw %d events, want 2", healthy)
	}
	// Recorder lock not poisoned: spans still record.
	_, sp := rec.StartSpan(context.Background(), "after.panic")
	sp.End()
	if healthy != 3 {
		t.Fatalf("span event not delivered after panic: %d", healthy)
	}
}

func TestJSONLSpanFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	rec := NewWithClock(NewRegistry(), traceClock(), NewJSONLSink(&buf)).WithProcess("p1")
	ctx := ContextWithRequestID(context.Background(), "rid")
	rctx, root := rec.StartSpan(ctx, "a.root")
	_, child := rec.StartSpan(rctx, "a.child")
	child.End(F("k", 1))
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	// The wire field order is part of the format: fixed identity fields
	// first, then timing, then extras — consumers may stream-parse.
	wantOrder := []string{`"t_us"`, `"kind"`, `"trace_id"`, `"span_id"`, `"parent_id"`,
		`"name"`, `"proc"`, `"request_id"`, `"start_unix_us"`, `"dur_us"`, `"k"`}
	pos := -1
	for _, key := range wantOrder {
		i := strings.Index(lines[0], key)
		if i < 0 {
			t.Fatalf("child line missing %s: %s", key, lines[0])
		}
		if i < pos {
			t.Fatalf("field %s out of order in %s", key, lines[0])
		}
		pos = i
	}
	// Root span has no parent: parent_id must be absent entirely.
	if strings.Contains(lines[1], `"parent_id"`) {
		t.Fatalf("root line carries parent_id: %s", lines[1])
	}
}

func TestPrometheusHelpEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lzwtc_esc_total", "line one\nline two \\ backslash").Add(1)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP lzwtc_esc_total line one\nline two \\ backslash`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	// The exposition must stay line-oriented: no raw newline inside HELP.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "lzwtc_esc_total") {
			t.Fatalf("stray line in exposition: %q", line)
		}
	}
}
