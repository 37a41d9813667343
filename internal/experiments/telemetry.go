package experiments

import (
	"lzwtc/internal/report"
	"lzwtc/internal/telemetry"
)

// EventRow is the per-row record an instrumented Run emits: one per
// table row, which for every experiment here means one per circuit.
const EventRow = "experiment.row"

// MetricRows counts table rows produced across all instrumented
// experiment runs.
const MetricRows = "lzwtc_experiment_rows_total"

// SpanExperimentRun is the span every instrumented experiment runs
// under; the experiment's name travels as an "experiment" field rather
// than in the span name, so the phase histogram stays one bounded
// series.
const SpanExperimentRun = "experiment.run"

// recordRows counts t's rows in the registry and emits each as an
// EventRow record keyed by the table's column headers. Nil-safe.
func recordRows(rec *telemetry.Recorder, name string, t *report.Table) {
	if rec == nil {
		return
	}
	if reg := rec.Registry(); reg != nil {
		reg.Counter(MetricRows, "experiment table rows produced").Add(int64(len(t.Rows)))
	}
	for _, row := range t.Rows {
		fields := make([]telemetry.Field, 0, len(row)+1)
		fields = append(fields, telemetry.F("experiment", name))
		for i, cell := range row {
			key := "col"
			if i < len(t.Headers) {
				key = t.Headers[i]
			}
			fields = append(fields, telemetry.F(key, cell))
		}
		rec.Emit(EventRow, fields...)
	}
}
