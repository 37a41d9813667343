package main

import (
	"errors"
	"fmt"
	"time"

	"lzwtc"
	"lzwtc/internal/telemetry"
)

// Shares of a service workload's traced run: an untraced phase for the
// overhead baseline, the traced service phase, then (the rest) the
// in-process layer replay of the same inputs.
const (
	svcUntracedShare = 0.4
	svcTracedShare   = 0.4
)

// trainRuns is how often the svc_jobs_dict replay retrains its
// dictionaries; core.train_ms is the median.
const trainRuns = 3

// traced is what a traced run measured, before it becomes metrics.
type traced struct {
	l                  layers    // in-process layer replay
	svc                svcLayers // joined service spans; zero for paper_local
	jobs               []jobTiming
	q                  quality // of the untraced phase
	coverage, overhead float64
	trainMS, hitShare  float64
	attempted, failed  int
	errs               []string
	spans              []telemetry.SpanRecord // taken from the sink before the replay
	calib              []float64              // calibration kernel times, ms
}

// measureTraced is the traced run: the per-layer metrics. Spans are
// recorded in memory around the benchmark's own calls into each layer
// (and, for the service workloads, by the client and by the server's
// existing spans) and written out when the run ends.
func (b *runner) measureTraced(st *state, rep *report) (*result, error) {
	if err := b.warmUp(st); err != nil {
		return nil, err
	}
	var t *traced
	var sink *spanSink
	if st.svc == nil {
		sink = &spanSink{}
		sink.on.Store(true)
		t = b.traceLocal(st, telemetry.New(nil, sink).WithProcess(processName))
		rep.CoverageTolerance = coverageTolerance
	} else {
		sink = st.svc.sink
		var err error
		if t, err = b.traceService(st); err != nil {
			return nil, err
		}
	}
	path, err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.spans.jsonl", b.workload, b.seed), append(t.spans, sink.take()...))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.SpanFile = path
	rep.Quality = t.q
	rep.CalibMS = median(t.calib)
	rep.HostIndex = b.pins.hostIndex(rep.CalibMS)
	rep.FailShare = float64(t.failed) / float64(max(t.attempted, 1))
	rep.Errors = append(rep.Errors, t.errs...)
	m, err := t.metrics(len(st.c.inputs), rep.HostIndex)
	if err != nil {
		return nil, err
	}
	if t.failed > 0 {
		err = errors.New("traced run failed a check")
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, err
}

// processName stamps the spans the benchmark records itself.
const processName = "perfbench"

// minPasses is the fewest passes paper_local's traced run makes,
// however short --seconds is, so the coverage check's median is over
// enough op pairs that one host stall cannot decide it.
const minPasses = 4

// traceLocal is paper_local's traced run: each input's untraced round
// trip is followed at once by its layer-by-layer replay, so a slow
// patch of the host hits both sides of the pair alike. The coverage
// check compares, op pair by op pair, the summed layer times with the
// untraced round trip they replay.
func (b *runner) traceLocal(st *state, rec *telemetry.Recorder) *traced {
	t := &traced{}
	cal := newCalibrator()
	a := readCounters()
	var covs, overs []float64
	deadline := time.Now().Add(b.d)
	for pass := 1; ; pass++ {
		for _, in := range st.c.inputs {
			t0 := time.Now()
			if o := localOp(in); !o.ok {
				t.failed++
				t.errs = append(t.errs, in.name+": untraced round trip failed its output check")
			}
			plain := time.Since(t0)
			before := t.l.total()
			t1 := time.Now()
			replayOp(rec, in, &t.l)
			replayed := time.Since(t1)
			covs = append(covs, float64(t.l.total()-before)/float64(plain))
			overs = append(overs, float64(replayed)/float64(plain)-1)
		}
		t.calib = append(t.calib, ms(cal.run()))
		if !time.Now().Before(deadline) && pass >= minPasses {
			break
		}
	}
	t.attempted = 2 * int(t.l.ops)
	t.failed += int(t.l.failed)
	t.q = qualityBetween(a, readCounters(), t.attempted)
	t.coverage, t.overhead = median(covs), median(overs)
	if t.coverage < 1-coverageTolerance || t.coverage > 1+coverageTolerance {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf("layer times cover %.3f of the untraced round trip, outside 1±%.2f",
			t.coverage, coverageTolerance))
	}
	return t
}

// traceService is a service workload's traced run: an untraced phase,
// the same closed loop with client and server spans recorded, then the
// in-process layer replay of the workload's inputs.
func (b *runner) traceService(st *state) (*traced, error) {
	t := &traced{}
	s := st.svc
	before := s.srv.DictStore().Stats()
	plain := runService(s, st.c, b.seed, time.Duration(float64(b.d)*svcUntracedShare), nil)
	s.sink.on.Store(true)
	tr := runService(s, st.c, b.seed, time.Duration(float64(b.d)*svcTracedShare), telemetry.New(nil, s.sink).WithProcess("client"))
	after := s.srv.DictStore().Stats()
	t.spans = s.sink.take()
	t.svc = analyzeSpans(t.spans)
	t.svc.wall = tr.end.at.Sub(tr.start.at)
	t.jobs = tr.jobs
	t.q = qualityBetween(plain.start, plain.end, len(plain.ops))
	t.overhead = opLatency(tr.phase)/opLatency(plain.phase) - 1
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		t.hitShare = float64(hits) / float64(hits+misses)
	}
	for _, p := range []*svcPhase{plain, tr} {
		for _, d := range p.calib {
			t.calib = append(t.calib, ms(d))
		}
		t.attempted += len(p.ops)
		for _, o := range p.ops {
			if !o.ok {
				t.failed++
			}
		}
		for _, e := range p.errs {
			t.errs = append(t.errs, e.Error())
		}
	}

	rec := telemetry.New(nil, s.sink).WithProcess(processName)
	deadline := time.Now().Add(b.d - time.Duration(float64(b.d)*(svcUntracedShare+svcTracedShare)))
	for {
		for _, in := range st.c.inputs {
			replayOp(rec, in, &t.l)
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	t.attempted += int(t.l.ops)
	t.failed += int(t.l.failed)
	var err error
	t.trainMS, err = timeTraining(st.c)
	return t, err
}

// metrics reduces a traced run to the per-layer metrics; inputs is the
// number of distinct inputs, one pass over which the exact counts
// describe.
func (t *traced) metrics(inputs int, host float64) (map[string]metric, error) {
	set := newMetricSet(perLayer, host)
	put := set.put
	l, s := &t.l, &t.svc
	passes := float64(l.ops) / float64(inputs)
	put("bitvec.parse_ns_per_bit", perUnit(float64(l.parse), l.bits))
	put("bitvec.parse_alloc_bytes_per_call", perUnit(float64(l.parseAlloc), l.ops))
	put("bitvec.serialize_ns_per_bit", perUnit(float64(l.serialize), l.bits))
	put("bitvec.deserialize_ns_per_bit", perUnit(float64(l.deserialize), l.bits))
	put("bitvec.render_ns_per_bit", perUnit(float64(l.render), l.bits))
	put("bitvec.alloc_bytes_per_bit", perUnit(float64(l.parseAlloc+l.bitvecAlloc), l.bits))
	put("core.match_loop_ns_per_char", perUnit(float64(l.match), l.chars))
	put("core.decode_ns_per_char", perUnit(float64(l.decode), l.chars))
	put("core.chars", float64(l.chars)/passes)
	put("core.codes", float64(l.codes)/passes)
	put("core.string_code_share", perUnit(float64(l.stringCodes), l.codes))
	put("core.dynamic_fill_share", perUnit(float64(l.dynFills), l.chars))
	put("core.dict_resets", float64(l.resets)/passes)
	put("core.train_ms", t.trainMS)
	put("wire.encode_ns_per_code", perUnit(float64(l.encode), l.codes))
	put("wire.decode_ns_per_code", perUnit(float64(l.wireDecode), l.codes))
	put("wire.container_bytes", float64(l.containerBytes)/passes)

	put("parallel.shards_per_op", perUnit(float64(s.batchJobs), int64(s.ops)))
	put("parallel.job_ms", perUnit(float64(s.batchJobUS)/1e3, s.batchJobs))
	busy := 0.0
	if s.wall > 0 {
		busy = float64(s.batchJobUS) * 1e3 / (float64(s.wall) * float64(gomaxprocs))
	}
	put("parallel.busy_share", busy)
	put("server.compress_self_ms", median(s.compressSelf))
	put("server.decompress_self_ms", median(s.decompressSelf))
	put("client.transport_ms", median(s.transport))
	put("client.retries", float64(s.retries))
	var queue, run, lag []float64
	for _, j := range t.jobs {
		queue = append(queue, ms(j.queueWait))
		run = append(run, ms(j.run))
		lag = append(lag, ms(j.pollLag))
	}
	put("jobs.queue_wait_ms", median(queue))
	put("jobs.run_ms", median(run))
	put("jobs.poll_lag_ms", median(lag))
	polls := 0.0
	if len(t.jobs) > 0 {
		polls = perUnit(float64(s.polls), int64(s.ops))
	}
	put("jobs.polls_per_op", polls)
	put("dictstore.hit_share", t.hitShare)
	put("dictstore.resolve_ms", median(s.resolve))
	put("runtime.gc_cpu_share", t.q.GCCPUShare)
	put("runtime.gc_cycles_per_op", t.q.GCCyclesPerOp)
	put("host.steal_share", t.q.StealShare)
	put("trace.overhead_share", t.overhead)
	put("trace.coverage_share", t.coverage)
	return set.complete()
}

// opLatency is the median compress-plus-decompress time of a phase's
// ops, the per-op figure the tracing overhead compares.
func opLatency(p *phase) float64 {
	xs := make([]float64, 0, len(p.ops))
	for _, o := range p.ops {
		xs = append(xs, ms(o.compress+o.decompress))
	}
	return median(xs)
}

// timeTraining replays set-up's training: lzwtc.Train on every base
// set, trainRuns times; it returns the median total in ms.
func timeTraining(c *corpus) (float64, error) {
	if len(c.bases) == 0 {
		return 0, nil
	}
	var runs []float64
	for i := 0; i < trainRuns; i++ {
		t0 := time.Now()
		for _, b := range c.bases {
			if _, err := lzwtc.Train(b.set, b.cfg, 0); err != nil {
				return 0, err
			}
		}
		runs = append(runs, ms(time.Since(t0)))
	}
	return median(runs), nil
}
