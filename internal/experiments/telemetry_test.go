package experiments

import (
	"context"
	"testing"

	"lzwtc/internal/telemetry"
)

func TestRunEmitsRowEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	rec := telemetry.New(reg, telemetry.SinkFunc(func(ev telemetry.Event) { events = append(events, ev) }))
	tbl, err := Run(context.Background(), "figure3", 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	var rows, spans int
	for _, ev := range events {
		switch ev.Kind {
		case EventRow:
			if exp, _ := ev.Field("experiment"); exp != "figure3" {
				t.Fatalf("row event experiment = %v", exp)
			}
			rows++
		case telemetry.EventTraceSpan:
			name, _ := ev.Field("name")
			exp, _ := ev.Field("experiment")
			if name == SpanExperimentRun && exp == "figure3" {
				spans++
			}
		}
	}
	if rows != len(tbl.Rows) {
		t.Fatalf("row events = %d, want %d", rows, len(tbl.Rows))
	}
	if spans != 1 {
		t.Fatalf("experiment span events = %d, want 1", spans)
	}
	if got := reg.Counter(MetricRows, "").Value(); got != int64(len(tbl.Rows)) {
		t.Fatalf("rows counter = %d, want %d", got, len(tbl.Rows))
	}
}

// TestRunNilRecorder: the uninstrumented run renders the same table as
// an instrumented one.
func TestRunNilRecorder(t *testing.T) {
	ctx := context.Background()
	plain, err := Run(ctx, "figure3", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := Run(ctx, "figure3", 0, telemetry.New(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != obs.String() {
		t.Fatal("Run with a recorder differs from Run without one")
	}
}

func TestRunUnknownNameWithRecorder(t *testing.T) {
	rec := telemetry.New(telemetry.NewRegistry())
	if _, err := Run(context.Background(), "no-such-experiment", 0, rec); err == nil {
		t.Fatal("unknown experiment accepted with a recorder")
	}
}
