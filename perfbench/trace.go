package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lzwtc/client"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/jobs"
	"lzwtc/internal/parallel"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

// svcLayers is what the joined client and server spans of a traced
// service phase say about each layer.
type svcLayers struct {
	ops                          int
	compressSelf, decompressSelf []float64 // ms per op
	transport                    []float64 // ms per instrumented request
	resolve                      []float64 // ms per dict.resolve
	retries, polls               int64
	batchJobs                    int64
	batchJobUS                   int64
	wall                         time.Duration // the traced phase
}

func spanInterval(s *telemetry.SpanRecord) interval {
	return interval{s.StartUnixUS, s.StartUnixUS + s.DurUS}
}

// analyzeSpans joins client spans to the server spans they caused (a
// server span's parent is the client.request that carried its trace
// header) and reduces them per op, an op being one bench.op trace.
func analyzeSpans(spans []telemetry.SpanRecord) svcLayers {
	var l svcLayers
	children := map[string][]interval{}
	byID := map[string]*telemetry.SpanRecord{}
	for i := range spans {
		s := &spans[i]
		byID[s.SpanID] = s
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], spanInterval(s))
		}
	}
	compress := map[string]float64{}
	decompress := map[string]float64{}
	self := func(s *telemetry.SpanRecord) float64 {
		return float64(selfTime(spanInterval(s), children[s.SpanID])) / 1e3
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanOp:
			l.ops++
		case server.SpanCompress, server.SpanJobSubmit, jobs.SpanJobRun:
			compress[s.TraceID] += self(s)
		case server.SpanDecompress:
			decompress[s.TraceID] += self(s)
		case parallel.EventJob:
			l.batchJobs++
			l.batchJobUS += s.DurUS
		case dictstore.SpanDictResolve:
			l.resolve = append(l.resolve, float64(s.DurUS)/1e3)
		case client.SpanClientRequest:
			if n, err := strconv.Atoi(s.Attrs["attempts"]); err == nil && n > 1 {
				l.retries += int64(n - 1)
			}
			if isStatusPoll(s.Attrs["path"]) {
				l.polls++
			}
		}
		if p := byID[s.ParentID]; p != nil && p.Name == client.SpanClientRequest && isServerSpan(s.Name) {
			l.transport = append(l.transport, float64(p.DurUS-s.DurUS)/1e3)
		}
	}
	for _, v := range compress {
		l.compressSelf = append(l.compressSelf, v)
	}
	for _, v := range decompress {
		l.decompressSelf = append(l.decompressSelf, v)
	}
	return l
}

func isServerSpan(name string) bool {
	return name == server.SpanCompress || name == server.SpanDecompress || name == server.SpanJobSubmit
}

// isStatusPoll reports whether a client request path is a job status
// GET (not the submit and not the result fetch).
func isStatusPoll(path string) bool {
	return strings.HasPrefix(path, server.PathJobs) && path != server.PathJobsCompress &&
		!strings.HasSuffix(path, server.JobResultSuffix)
}

// writeSpans writes the run's spans under dir, one
// telemetry.SpanRecord JSON object per line.
func writeSpans(dir, name string, spans []telemetry.SpanRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //nolint:errcheck // already failing
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return "", err
	}
	return path, f.Close()
}

// spanSink keeps trace spans in memory while switched on. It declines
// per-step events, so attaching it never turns on the compressor's
// step stream.
type spanSink struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (s *spanSink) WantsSteps() bool { return false }

func (s *spanSink) Emit(ev telemetry.Event) {
	if !s.on.Load() {
		return
	}
	rec, ok := telemetry.SpanRecordFromEvent(ev)
	if !ok {
		return
	}
	s.mu.Lock()
	s.spans = append(s.spans, rec)
	s.mu.Unlock()
}

// take returns the recorded spans and clears the sink.
func (s *spanSink) take() []telemetry.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}
