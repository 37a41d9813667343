package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"lzwtc/client"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

// Service-workload settings.
const (
	pollEvery = 2 * time.Millisecond // WaitJob's fixed poll interval
	// jobTTL is lzwtcd's -jobs-ttl for the run and jobSweep the sweeper's
	// cadence. Each client fetches its result as soon as the job is
	// done, so a long retention would only let finished results pile
	// up: the live heap would grow with run length, and with throughput
	// (a faster server retains more jobs per second of TTL).
	jobTTL   = time.Second
	jobSweep = 100 * time.Millisecond
)

// svcClients is each service workload's number of closed-loop client
// goroutines. svc_jobs_dict runs one per core of the reference machine.
// svc_small runs one: its 1 ms requests hop between client, server and
// pool goroutines, and a second client on two cores makes each op's
// time depend on whether the other client's request overlapped it.
var svcClients = map[string]int{"svc_small": 1, "svc_jobs_dict": 2}

// service is an lzwtcd handler served on a loopback listener, with the
// clients that drive it.
type service struct {
	srv    *server.Server
	sink   *spanSink
	stop   context.CancelFunc
	served chan error
	tr     *http.Transport
	url    string
	// clients is how many closed-loop clients runService drives.
	clients int
}

// startService serves server.New — the handler lzwtcd serves — on a
// loopback port, for the given number of clients. The span sink
// records nothing until switched on.
func startService(clients int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{sink: &spanSink{}, served: make(chan error, 1), clients: clients}
	s.srv = server.New(server.Config{
		TraceCapacity:    64,
		Sinks:            []telemetry.Sink{s.sink},
		JobResultTTL:     jobTTL,
		JobSweepInterval: jobSweep,
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	go func() { s.served <- s.srv.Serve(ctx, ln, 10*time.Second) }()
	s.tr = &http.Transport{MaxIdleConnsPerHost: 2 * clients}
	s.url = "http://" + ln.Addr().String()
	return s, nil
}

// newClient builds one lzwtc client over the shared transport with
// the client's default retry policy; rec (nil when untraced) records
// its client.request spans.
func (s *service) newClient(rec *telemetry.Recorder) *client.Client {
	return client.New(s.url, client.Options{HTTPClient: &http.Client{Transport: s.tr}, Recorder: rec})
}

// close drains the server and waits for Serve to return.
func (s *service) close() error {
	s.stop()
	err := <-s.served
	s.tr.CloseIdleConnections()
	return err
}

// trainDicts stores each base's dictionary through the service and
// checks the service addressed it exactly as the local reference did.
func (s *service) trainDicts(ctx context.Context, c *corpus) error {
	cl := s.newClient(nil)
	for _, b := range c.bases {
		info, err := cl.TrainDict(ctx, b.set, b.cfg, 0)
		if err != nil {
			return fmt.Errorf("training %s: %w", b.name, err)
		}
		if info.Key != b.key || info.Digest != b.ent.Digest.String() {
			return fmt.Errorf("service trained %s as %s/%s, local reference is %s/%s",
				b.name, info.Key, info.Digest, b.key, b.ent.Digest)
		}
	}
	return nil
}

// jobTiming is what one job's final status says about the job tier.
type jobTiming struct {
	queueWait, run, pollLag time.Duration
}

// svcOp is one service round trip. svc_small: client.Compress, then
// client.Decompress. svc_jobs_dict: SubmitCompressJob naming the
// stored dictionary, WaitJob, JobResult, then client.Decompress. The
// decompressed set is rendered to cube text inside the timed span, as
// a caller writing it out would; only the byte comparisons are outside.
func svcOp(ctx context.Context, cl *client.Client, in *input) (op, jobTiming, error) {
	o := op{bits: in.bits, compBits: in.compBits}
	var jt jobTiming
	opts := client.CompressOptions{ShardPatterns: in.shard}
	t0 := time.Now()
	var data []byte
	var err error
	if in.base == nil {
		data, err = cl.Compress(ctx, in.set, in.cfg, opts)
	} else {
		opts.DictID = in.base.key
		data, jt, err = jobCompress(ctx, cl, in, opts)
	}
	if err != nil {
		return o, jt, err
	}
	t1 := time.Now()
	ts, err := cl.Decompress(ctx, data)
	if err != nil {
		return o, jt, err
	}
	text, err := cubeText(ts)
	if err != nil {
		return o, jt, err
	}
	t2 := time.Now()
	o.compress, o.decompress = t1.Sub(t0), t2.Sub(t1)
	o.ok = bytes.Equal(data, in.container) && bytes.Equal(text, in.filled)
	if !o.ok {
		return o, jt, errors.New("output differs from the in-process reference")
	}
	return o, jt, nil
}

func jobCompress(ctx context.Context, cl *client.Client, in *input, opts client.CompressOptions) ([]byte, jobTiming, error) {
	var jt jobTiming
	st, err := cl.SubmitCompressJob(ctx, in.set, in.cfg, opts)
	if err != nil {
		return nil, jt, err
	}
	fin, err := cl.WaitJob(ctx, st.ID, pollEvery)
	if err != nil {
		return nil, jt, err
	}
	seen := time.Now().UnixMicro()
	jt.queueWait = us(fin.StartedUnixUS - fin.CreatedUnixUS)
	jt.run = us(fin.FinishedUnixUS - fin.StartedUnixUS)
	jt.pollLag = us(seen - fin.FinishedUnixUS)
	data, err := cl.JobResult(ctx, st.ID)
	return data, jt, err
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

// svcPhase is one closed-loop phase against the service and what the
// harness saw of it besides the ops.
type svcPhase struct {
	*phase
	jobs []jobTiming
	errs []error
}

// runService drives the service with s.clients closed-loop clients
// for d. With rec non-nil every op runs under a bench.op root span and
// its client calls record client.request spans into the same trace.
func runService(s *service, c *corpus, seed int64, d time.Duration, rec *telemetry.Recorder) *svcPhase {
	sp := &svcPhase{}
	var mu sync.Mutex
	clients := make([]*client.Client, s.clients)
	for i := range clients {
		clients[i] = s.newClient(rec)
	}
	sp.phase = runClosedLoop(s.clients, len(c.inputs), seed, true, d, func(ci, idx int) op {
		in := c.inputs[idx]
		ctx, root := rec.StartSpan(context.Background(), spanOp)
		o, jt, err := svcOp(ctx, clients[ci], in)
		root.End(telemetry.F("input", in.name))
		mu.Lock()
		defer mu.Unlock()
		if in.base != nil && err == nil {
			sp.jobs = append(sp.jobs, jt)
		}
		if err != nil && len(sp.errs) < 5 {
			sp.errs = append(sp.errs, fmt.Errorf("%s: %w", in.name, err))
		}
		return o
	})
	return sp
}
