// Command perfbench is lzwtc's end-to-end benchmark: the paper's
// Table 3 circuits round-tripped from cube text to cube text, in-process
// and through the lzwtcd handler, with every output checked byte for
// byte. See README.md for the workloads and metrics.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload paper_local --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer metrics of a separate
// traced run.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// A run sets its workload up at least setupRuns times and until
// setupMinTime has passed; setup_s is the median. svc_small sets up in
// 50 ms, where a median of nine would still move with a few slow
// starts.
const (
	setupRuns    = 9
	setupMinTime = 2 * time.Second
)

// coverageTolerance bounds how far paper_local's summed layer times may
// stray from the untraced round trip they replay.
const coverageTolerance = 0.15

// spanDir is where a traced run writes its spans, relative to the
// checkout the benchmark runs in.
const spanDir = ".bench_build/spans"

//go:embed pins.json
var pinsJSON []byte

// pins fixes what each workload's inputs must be at the default seed.
type pins struct {
	DefaultSeed int64 `json:"default_seed"`
	// CalibRefMS is the reference host's calibration kernel time
	// (calib.go): the figures of every run are scaled to it.
	CalibRefMS float64                `json:"calib_ref_ms"`
	Workloads  map[string]workloadPin `json:"workloads"`
}

// hostIndex is how much slower than the reference host this run's
// host ran the calibration kernel; 1 when no reference is pinned.
func (p pins) hostIndex(calibMS float64) float64 {
	if p.CalibRefMS <= 0 || calibMS <= 0 {
		return 1
	}
	return calibMS / p.CalibRefMS
}

type workloadPin struct {
	InputsSHA256 string  `json:"inputs_sha256"`
	RatioPct     float64 `json:"ratio_pct"`
	// TypicalPercentile is the per-input percentile the gated
	// latencies, per-bit times and throughput are built from (see
	// summarize).
	TypicalPercentile float64           `json:"typical_percentile"`
	TailPercentile    float64           `json:"tail_percentile"`
	TailSamples       int               `json:"tail_samples"`
	Configs           map[string]string `json:"configs"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		fmt.Fprintln(stderr, "perfbench: pins.json:", err)
		return 2
	}
	workload := fs.String("workload", "", "paper_local, svc_small or svc_jobs_dict")
	seed := fs.Int64("seed", p.DefaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	pin := fs.Bool("pin", false, "print the workload's pin entry at the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		return printPin(*workload, p.DefaultSeed, stdout, stderr)
	}
	wp, ok := p.Workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of paper_local, svc_small, svc_jobs_dict), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	b := &runner{workload: *workload, seed: *seed, d: time.Duration(*seconds) * time.Second,
		pin: wp, pins: p}
	res, report, err := b.run(*trace == 1)
	if report != nil {
		line, _ := json.Marshal(report) //nolint:errcheck // plain data
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	line, _ := json.Marshal(res) //nolint:errcheck // plain data
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printPin generates and prepares a workload at the default seed and
// prints the fields of its pins.json entry that derive from the inputs.
func printPin(workload string, seed int64, stdout, stderr io.Writer) int {
	c, err := generate(workload, seed)
	if err == nil {
		err = c.prepare(context.Background())
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bits, comp := c.totals()
	out, _ := json.MarshalIndent(workloadPin{ //nolint:errcheck // plain data
		InputsSHA256: c.hash(), RatioPct: ratioPct(bits, comp), Configs: c.configs(),
	}, "", "  ")
	fmt.Fprintln(stdout, string(out))
	return 0
}

// runner is one invocation: a workload, its seed and its time budget.
type runner struct {
	workload string
	seed     int64
	d        time.Duration
	pin      workloadPin
	pins     pins
}

// state is one set-up of the workload.
type state struct {
	c   *corpus
	svc *service // nil for paper_local
}

func (s *state) close() error {
	if s.svc == nil {
		return nil
	}
	return s.svc.close()
}

// setup generates the inputs, computes and verifies every reference
// output, and for the service workloads starts the server and trains
// the shared dictionaries through it.
func (b *runner) setup(ctx context.Context) (*state, error) {
	c, err := generate(b.workload, b.seed)
	if err != nil {
		return nil, err
	}
	if err := c.prepare(ctx); err != nil {
		return nil, err
	}
	st := &state{c: c}
	if b.workload == "paper_local" {
		return st, nil
	}
	if st.svc, err = startService(svcClients[b.workload]); err != nil {
		return nil, err
	}
	if err := st.svc.trainDicts(ctx, c); err != nil {
		return nil, errors.Join(err, st.svc.close())
	}
	return st, nil
}

// checkPins fails the run before any timing when the generator no
// longer produces the pinned inputs. At the default seed the pinned
// ratio must also come out exactly; at any other seed the default
// seed's inputs are generated once more just to compare their hash.
func (b *runner) checkPins(c *corpus) error {
	if b.seed != b.pins.DefaultSeed {
		var err error
		if c, err = generate(b.workload, b.pins.DefaultSeed); err != nil {
			return err
		}
	} else if bits, comp := c.totals(); ratioPct(bits, comp) != b.pin.RatioPct {
		return fmt.Errorf("ratio_pct %v at the default seed, pinned %v", ratioPct(bits, comp), b.pin.RatioPct)
	}
	if h := c.hash(); h != b.pin.InputsSHA256 {
		return fmt.Errorf("inputs at the default seed hash to %s, pinned %s: the generator changed", h, b.pin.InputsSHA256)
	}
	return nil
}

// report is the line printed before the result: everything a reader
// needs to judge the run, including what the result's metrics omit.
type report struct {
	Workload          string    `json:"workload"`
	Seed              int64     `json:"seed"`
	Traced            bool      `json:"traced"`
	SetupRunsS        []float64 `json:"setup_runs_s"`
	FailShare         float64   `json:"fail_share"`
	Errors            []string  `json:"errors,omitempty"`
	Summary           *summary  `json:"summary,omitempty"`
	TailThin          bool      `json:"tail_percentile_has_fewer_than_10_beyond,omitempty"`
	TailSupported     float64   `json:"tail_percentile_supported,omitempty"` // highest with 10 beyond at this run's count
	RatioPinned       bool      `json:"ratio_pinned"`
	Quality           quality   `json:"quality"`
	SpanFile          string    `json:"span_file,omitempty"`
	CalibMS           float64   `json:"calib_ms"`
	HostIndex         float64   `json:"host_index"`
	CoverageTolerance float64   `json:"coverage_tolerance,omitempty"`
	GOMAXPROCS        int       `json:"gomaxprocs"`
	InputsSHA256      string    `json:"inputs_sha256"`
}

func (b *runner) run(traced bool) (*result, *report, error) {
	ctx := context.Background()
	rep := &report{Workload: b.workload, Seed: b.seed, Traced: traced, GOMAXPROCS: gomaxprocs}
	var st *state
	setupStart := time.Now()
	for {
		t0 := time.Now()
		s, err := b.setup(ctx)
		if err != nil {
			return nil, rep, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(t0).Seconds())
		if len(rep.SetupRunsS) >= setupRuns && time.Since(setupStart) >= setupMinTime {
			st = s
			break
		}
		if err := s.close(); err != nil {
			return nil, rep, err
		}
	}
	rep.InputsSHA256 = st.c.hash()
	if err := b.checkPins(st.c); err != nil {
		return nil, rep, errors.Join(err, st.close())
	}
	rep.RatioPinned = b.seed == b.pins.DefaultSeed
	setupS := median(append([]float64(nil), rep.SetupRunsS...))

	var res *result
	var err error
	if traced {
		res, err = b.measureTraced(st, rep)
	} else {
		res, err = b.measure(st, rep, setupS)
	}
	if cerr := st.close(); cerr != nil && err == nil {
		err = fmt.Errorf("stopping the service: %w", cerr)
	}
	if res != nil && err != nil {
		res.Correct = false
		rep.Errors = append(rep.Errors, err.Error())
	}
	return res, rep, err
}

// warmUp runs one untimed cycle per client, so connections, caches and
// lazily built tables are in place before timing starts.
func (b *runner) warmUp(st *state) error {
	var p *phase
	var errs []error
	if st.svc == nil {
		p = runClosedLoop(1, len(st.c.inputs), b.seed, false, 0, func(_, i int) op { return localOp(st.c.inputs[i]) })
	} else {
		sp := runService(st.svc, st.c, b.seed, 0, nil)
		p, errs = sp.phase, sp.errs
	}
	for _, o := range p.ops {
		if !o.ok {
			return fmt.Errorf("warm-up round trip failed: %w", errors.Join(errs...))
		}
	}
	return nil
}

// measure is the untraced run: the end-to-end metrics.
func (b *runner) measure(st *state, rep *report, setupS float64) (*result, error) {
	if err := b.warmUp(st); err != nil {
		return nil, err
	}
	var p *phase
	if st.svc == nil {
		p = runClosedLoop(1, len(st.c.inputs), b.seed, false, b.d, func(_, i int) op { return localOp(st.c.inputs[i]) })
	} else {
		sp := runService(st.svc, st.c, b.seed, b.d, nil)
		for _, e := range sp.errs {
			rep.Errors = append(rep.Errors, e.Error())
		}
		p = sp.phase
	}
	s := p.summarize(b.pin.TypicalPercentile, b.pin.TailPercentile)
	rep.Summary = &s
	rep.Quality = s.Quality
	rep.FailShare = float64(s.Failed) / float64(s.Ops)
	rep.TailThin = beyond(s.TailPercentile, s.TailSamples) < minBeyond
	rep.TailSupported = tailPercentile(s.TailSamples)
	rep.CalibMS, rep.HostIndex = s.CalibMS, b.pins.hostIndex(s.CalibMS)
	set := newMetricSet(endToEnd, rep.HostIndex)
	set.put("setup_s", setupS)
	set.put("mbit_per_s", s.MbitPerS)
	set.put("cpu_ns_per_bit", s.CPUNsPerBit)
	set.put("compress_ns_per_bit", s.CompressNsPerBit)
	set.put("decompress_ns_per_bit", s.DecompressNsPerBit)
	set.put("compress_latency_ms", s.CompressLatency)
	set.put("decompress_latency_ms", s.DecompressLatency)
	set.put("ratio_pct", s.RatioPct)
	set.put("alloc_bytes_per_bit", s.AllocBytesPerBit)
	set.put("live_heap_floor_mb", s.LiveHeapFloorMB)
	m, err := set.complete()
	if err != nil {
		return nil, err
	}
	return &result{Correct: s.Failed == 0, Attempted: s.Ops, Failed: s.Failed, Metrics: m}, nil
}
