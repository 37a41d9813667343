package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime counters the harness reads. One Read fills all of them.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

// counters is one reading of every process-wide counter a phase
// differences.
type counters struct {
	at       time.Time
	cpu      time.Duration // getrusage user+sys
	allocs   uint64
	gcCycles uint64
	gcCPU    float64
	usedCPU  float64 // runtime's total minus idle
	steal    int64   // /proc/stat jiffies
	jiffies  int64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mAllCPU}, {Name: mIdleCPU}}
	metrics.Read(s)
	c := counters{
		at:       time.Now(),
		cpu:      processCPU(),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		usedCPU:  s[3].Value.Float64() - s[4].Value.Float64(),
	}
	c.steal, c.jiffies = hostSteal()
	return c
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the steal and total jiffies of the host's aggregate
// cpu line. Both are 0 where /proc/stat is unreadable; steal_share then
// reads 0 and nothing else depends on it.
func hostSteal() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// quality is the run-quality record printed beside every phase. It is
// never used to drop or repeat a run.
type quality struct {
	StealShare    float64 `json:"host.steal_share"`
	GCCPUShare    float64 `json:"runtime.gc_cpu_share"`
	GCCyclesPerOp float64 `json:"runtime.gc_cycles_per_op"`
}

func qualityBetween(a, b counters, ops int) quality {
	var q quality
	if d := b.jiffies - a.jiffies; d > 0 {
		q.StealShare = float64(b.steal-a.steal) / float64(d)
	}
	if d := b.usedCPU - a.usedCPU; d > 0 {
		q.GCCPUShare = (b.gcCPU - a.gcCPU) / d
	}
	if ops > 0 {
		q.GCCyclesPerOp = float64(b.gcCycles-a.gcCycles) / float64(ops)
	}
	return q
}

// op is one round trip: cube text in, container, cube text out.
type op struct {
	input                int // index into the workload's inputs
	compress, decompress time.Duration
	bits, compBits       int64
	ok                   bool
}

// phase collects the ops of one closed-loop measurement. Every `window`
// completed ops it snapshots the process counters, so CPU and
// allocation rates can be reported as medians over windows: a VM steal
// burst then spoils a few windows instead of the whole figure. Between
// two windows it times the calibration kernel; window i runs from
// starts[i] to ends[i], so the kernel's time is in no window.
type phase struct {
	window  int // ops per window: one cycle over the inputs
	clients int
	cal     *calibrator

	mu     sync.Mutex
	ops    []op
	starts []counters
	ends   []counters
	calib  []time.Duration
	peaks  []uint64 // each window's live-heap high-water mark
	lows   []uint64 // each window's live-heap low-water mark

	windowPeak atomic.Uint64 // live-heap high-water mark of the open window
	windowLow  atomic.Uint64 // its low-water mark; 0 before the first reading
	start      counters
	end        counters
}

// runClosedLoop runs clients goroutines, each sending its next request
// only after the previous reply, for at least d and at least one cycle
// per client. A client checks the clock only between cycles over the
// inputs, so every client completes whole cycles and the op mix (and
// ratio_pct) is the same in every run. Each client visits the n inputs
// in its own seeded order, reshuffled every cycle.
func runClosedLoop(clients, n int, seed int64, shuffle bool, d time.Duration, do func(client, idx int) op) *phase {
	p := &phase{window: n, clients: clients, cal: newCalibrator()}
	stopSampler := p.sampleLiveHeap()
	p.start = readCounters()
	p.starts = append(p.starts, p.start)
	deadline := p.start.at.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			for {
				if shuffle {
					rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				for _, idx := range order {
					o := do(c, idx)
					o.input = idx
					p.add(o)
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.end = readCounters()
	stopSampler()
	return p
}

func (p *phase) add(o op) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops = append(p.ops, o)
	if len(p.ops)%p.window == 0 {
		p.ends = append(p.ends, readCounters())
		p.peaks = append(p.peaks, p.windowPeak.Swap(0))
		p.lows = append(p.lows, p.windowLow.Swap(0))
		p.calib = append(p.calib, p.cal.run())
		p.starts = append(p.starts, readCounters())
	}
}

// sampleLiveHeap polls the live heap into the open window's high- and
// low-water marks until the returned stop function is called; stop
// returns once the sampler has exited. The live heap changes only when
// a GC cycle ends, so a 5 ms poll sees most values.
func (p *phase) sampleLiveHeap() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s := []metrics.Sample{{Name: mLive}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for {
				old := p.windowPeak.Load()
				if v <= old || p.windowPeak.CompareAndSwap(old, v) {
					break
				}
			}
			for {
				old := p.windowLow.Load()
				if (old != 0 && v >= old) || p.windowLow.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// summary is a phase reduced to its figures, as the wall clock read
// them; the result line divides the time-valued ones by the host index.
type summary struct {
	Ops, Failed                   int
	MbitPerS, CPUNsPerBit         float64
	CompressNsPerBit              float64
	DecompressNsPerBit            float64
	TypicalPercentile             float64
	CompressLatency               float64 // ms, at TypicalPercentile
	DecompressLatency             float64
	CompressP50, CompressTail     float64
	DecompressP50, DecompressTail float64
	TailPercentile                float64
	TailSamples                   int
	RatioPct                      float64
	AllocBytesPerBit              float64
	LiveHeapFloorMB               float64 // median over windows of the window's lowest live heap
	PeakLiveHeapMB                float64 // median over windows of the window's highest live heap
	Windows                       int
	WallMbitPerS                  float64 // Σ bits ÷ phase wall time, for comparison
	CalibMS                       float64 // median calibration kernel time
	Quality                       quality
}

// summarize reduces the phase. Timings are taken per input first: a
// workload mixes inputs whose sizes differ fivefold, and a percentile
// over the pooled ops falls between size classes and jumps between
// them from run to run, while each input's own percentile holds still.
// The gated times use each input's typical time: its typP-th percentile
// (the workload's pin; README.md says why svc_small's is lower).
//   - The per-bit times are Σ of the inputs' typical times ÷ Σ bits.
//   - The throughput: with c closed-loop clients each sending one input
//     after another, c × Σ bits ÷ Σ (typical compress + typical
//     decompress) is the rate they move bits at. The typical round trip
//     is taken as the sum of its halves' typical times, not as a
//     percentile of the round trips: a stall that hits either half
//     moves a round trip, so that percentile moves with steal about
//     twice as far as the halves do.
//   - The typical and p50 latencies are the inputs' own percentiles,
//     averaged over inputs.
//   - The tails are percentiles over all ops, as a user meets them.
//
// CPU and allocation rates and the live-heap floor and peak are medians
// over windows.
func (p *phase) summarize(typP, tailP float64) summary {
	s := summary{Ops: len(p.ops), TypicalPercentile: typP, TailPercentile: tailP, Windows: len(p.ends)}
	type times struct {
		bits      int64
		comp, dec []float64
	}
	byInput := make([]times, p.window)
	var comp, decomp []float64
	var bits, compBits int64
	for _, o := range p.ops {
		if !o.ok {
			s.Failed++
			continue
		}
		c, d := ms(o.compress), ms(o.decompress)
		comp = append(comp, c)
		decomp = append(decomp, d)
		t := &byInput[o.input]
		t.bits = o.bits
		t.comp, t.dec = append(t.comp, c), append(t.dec, d)
		bits += o.bits
		compBits += o.compBits
	}
	s.TailSamples = len(comp)
	if bits > 0 {
		s.RatioPct = ratioPct(bits, compBits)
	}
	s.CompressTail = percentile(comp, tailP)
	s.DecompressTail = percentile(decomp, tailP)

	var inBits, inComp, inDec float64 // Σ over inputs of the typical times; ms
	var inCompMed, inDecMed float64   // Σ of the medians
	inputs := 0
	for _, t := range byInput {
		if len(t.comp) == 0 {
			continue
		}
		inBits += float64(t.bits)
		inputs++
		inComp += percentile(t.comp, typP)
		inDec += percentile(t.dec, typP)
		inCompMed += median(t.comp)
		inDecMed += median(t.dec)
	}
	if inBits > 0 {
		s.CompressLatency, s.DecompressLatency = inComp/float64(inputs), inDec/float64(inputs)
		s.CompressP50, s.DecompressP50 = inCompMed/float64(inputs), inDecMed/float64(inputs)
		s.CompressNsPerBit = inComp * 1e6 / inBits
		s.DecompressNsPerBit = inDec * 1e6 / inBits
		s.MbitPerS = float64(p.clients) * inBits / (inComp + inDec) / 1e3
	}

	var cpu, alloc []float64
	for w := range p.ends {
		a, b := p.starts[w], p.ends[w]
		var wbits int64
		for _, o := range p.ops[w*p.window : (w+1)*p.window] {
			wbits += o.bits
		}
		if wbits == 0 {
			continue
		}
		cpu = append(cpu, float64(b.cpu-a.cpu)/float64(wbits))
		alloc = append(alloc, float64(b.allocs-a.allocs)/float64(wbits))
	}
	s.CPUNsPerBit, s.AllocBytesPerBit = median(cpu), median(alloc)
	s.LiveHeapFloorMB, s.PeakLiveHeapMB = medianMiB(p.lows), medianMiB(p.peaks)
	if wall := p.end.at.Sub(p.start.at).Seconds(); wall > 0 {
		s.WallMbitPerS = float64(bits) / wall / 1e6
	}
	calib := make([]float64, len(p.calib))
	for i, d := range p.calib {
		calib[i] = ms(d)
	}
	s.CalibMS = median(calib)
	s.Quality = qualityBetween(p.start, p.end, len(p.ops))
	return s
}

// medianMiB is the median of byte counts, in MiB.
func medianMiB(bs []uint64) float64 {
	xs := make([]float64, len(bs))
	for i, v := range bs {
		xs[i] = float64(v) / (1 << 20)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gomaxprocs is read once; the harness never changes it.
var gomaxprocs = runtime.GOMAXPROCS(0)
