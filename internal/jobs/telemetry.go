package jobs

import (
	"sync/atomic"

	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
)

// Registry metric names for the job tier. Queue depth / running /
// retained are gauges tracking the manager's live population; the
// counters aggregate lifecycle outcomes; the duration histogram feeds
// the Retry-After estimator's sanity checks and capacity planning.
const (
	MetricJobsSubmitted  = "lzwtc_jobs_submitted_total"
	MetricJobsCompleted  = "lzwtc_jobs_completed_total"
	MetricJobsFailed     = "lzwtc_jobs_failed_total"
	MetricJobsCanceled   = "lzwtc_jobs_canceled_total"
	MetricJobsExpired    = "lzwtc_jobs_expired_total"
	MetricJobsRejected   = "lzwtc_jobs_rejected_total"
	MetricJobsQueueDepth = "lzwtc_jobs_queue_depth"
	MetricJobsRunning    = "lzwtc_jobs_running"
	MetricJobsRetained   = "lzwtc_jobs_retained"
	MetricJobDuration    = "lzwtc_jobs_duration_seconds"
)

// SpanJobRun is the trace span covering one job's execution, a child
// of the submitting request's span (the job context carries the
// submit-time span identity), so async work joins the same trace as
// the 202 that admitted it.
const SpanJobRun = "job.run"

// managerMetrics holds the manager's instruments, resolved once at
// construction. All fields are nil-safe: a nil recorder costs a
// pointer check per touch.
type managerMetrics struct {
	submitted  *telemetry.Counter
	completed  *telemetry.Counter
	failed     *telemetry.Counter
	canceled   *telemetry.Counter
	expired    *telemetry.Counter
	rejected   *telemetry.Counter
	queueDepth *telemetry.Gauge
	running    *telemetry.Gauge
	retained   *telemetry.Gauge
	duration   *telemetry.Histogram
}

func (m *managerMetrics) init(rec *telemetry.Recorder) {
	reg := rec.Registry()
	if reg == nil {
		return
	}
	m.submitted = reg.Counter(MetricJobsSubmitted, "jobs admitted to the queue")
	m.completed = reg.Counter(MetricJobsCompleted, "jobs finished successfully")
	m.failed = reg.Counter(MetricJobsFailed, "jobs finished with an error")
	m.canceled = reg.Counter(MetricJobsCanceled, "jobs canceled before completion")
	m.expired = reg.Counter(MetricJobsExpired, "terminal jobs deleted by the TTL sweep")
	m.rejected = reg.Counter(MetricJobsRejected, "submissions refused by quota or a full queue")
	m.queueDepth = reg.Gauge(MetricJobsQueueDepth, "jobs admitted but not yet running")
	m.running = reg.Gauge(MetricJobsRunning, "jobs currently executing")
	m.retained = reg.Gauge(MetricJobsRetained, "jobs retained (any state) awaiting fetch or sweep")
	m.duration = reg.Histogram(MetricJobDuration, "job wall clock from submit to terminal state", telemetry.DurationBuckets())
}

// Progress is one job's frame counter, fed by the telemetry layer: it
// implements telemetry.Sink and counts the parallel pool's batch.job
// span completions, so wiring it as a sink on the job's recorder makes
// every pool sub-job (one per shard frame) tick the status endpoint's
// frames_done.
type Progress struct {
	done  atomic.Int64
	total atomic.Int64
}

// SetTotal declares how many frames the job expects (1 for unsharded
// compressions, the shard count otherwise).
func (p *Progress) SetTotal(n int) {
	if p != nil {
		p.total.Store(int64(n))
	}
}

// Add advances the done counter directly, for run bodies that do not
// route progress through the telemetry sink.
func (p *Progress) Add(n int) {
	if p != nil {
		p.done.Add(int64(n))
	}
}

// Snapshot returns the current (done, total) pair.
func (p *Progress) Snapshot() (done, total int) {
	if p == nil {
		return 0, 0
	}
	return int(p.done.Load()), int(p.total.Load())
}

// Emit implements telemetry.Sink: each completed pool job span
// advances the frame counter.
func (p *Progress) Emit(ev telemetry.Event) {
	rec, ok := telemetry.SpanRecordFromEvent(ev)
	if !ok || rec.Name != parallel.EventJob {
		return
	}
	p.done.Add(1)
}
