package main

import (
	"math/rand"
	"time"
)

// The calibration kernel is the benchmark's yardstick for the host's
// speed. The shared machines this benchmark runs on change speed by
// 20–40% from one minute to the next (other tenants, steal), and CPU
// time slows with wall time, so no statistic of one run's own timings
// can tell a slower program from a slower host. The kernel is a fixed
// piece of the same kind of work as the round trip's glue — cube text
// parsed into value and care bit-planes and rendered back, over a
// working set the size of the larger circuits — written here, so no
// change to lzwtc can change its speed. It allocates nothing, so a
// program that allocates more does not slow it through GC assists.
// A run times it at every window boundary; its median over the pinned
// reference time is the run's host index.

const (
	calibWidth = 700 // bits per line, s13207's scan length
	calibLines = 400
)

var calibText = func() []byte {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, 0, calibLines*(calibWidth+1))
	for l := 0; l < calibLines; l++ {
		for i := 0; i < calibWidth; i++ {
			switch r := rng.Intn(10); {
			case r < 7:
				b = append(b, 'X')
			case r < 9:
				b = append(b, '0')
			default:
				b = append(b, '1')
			}
		}
		b = append(b, '\n')
	}
	return b
}()

// calibrator holds the kernel's buffers; one per phase.
type calibrator struct {
	val, care []uint64
	out       []byte
	sum       uint64 // keeps the work observable
}

func newCalibrator() *calibrator {
	words := (calibLines*calibWidth + 63) / 64
	return &calibrator{val: make([]uint64, words), care: make([]uint64, words), out: make([]byte, len(calibText))}
}

// run parses calibText into bit-planes, renders it back and returns
// how long that took.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	clear(c.val)
	clear(c.care)
	bit := 0
	for _, ch := range calibText {
		switch ch {
		case '1':
			c.val[bit>>6] |= 1 << (bit & 63)
			c.care[bit>>6] |= 1 << (bit & 63)
		case '0':
			c.care[bit>>6] |= 1 << (bit & 63)
		case '\n':
			continue
		}
		bit++
	}
	n := 0
	for i := 0; i < bit; i++ {
		w, m := i>>6, uint64(1)<<(i&63)
		switch {
		case c.care[w]&m == 0:
			c.out[n] = 'X'
		case c.val[w]&m != 0:
			c.out[n] = '1'
		default:
			c.out[n] = '0'
		}
		n++
		if (i+1)%calibWidth == 0 {
			c.out[n] = '\n'
			n++
		}
	}
	c.sum += uint64(c.out[n/2]) + c.val[len(c.val)/2]
	return time.Since(t0)
}
