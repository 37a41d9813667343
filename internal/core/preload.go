package core

import (
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// Preload is a static warm-start dictionary: concrete character strings
// installed into the dictionary before compression or decompression
// begins. The paper's conclusion suggests amortizing the decompressor by
// making it "part of normal operation"; a preloaded dictionary is the
// natural next step — the ATE (or the BIST controller, through the
// Figure 6 port) writes a trained dictionary into the embedded memory
// once, and every subsequent test session starts warm.
//
// Strings must be prefix-closed in order: each string is inserted by
// walking existing entries and must extend the dictionary by exactly its
// last character (Train produces exactly this form).
type Preload struct {
	Strings [][]uint64
}

// Entries returns the number of preloaded strings.
func (p *Preload) Entries() int {
	if p == nil {
		return 0
	}
	return len(p.Strings)
}

// preload installs the strings into a fresh dictionary.
func (d *dict) preload(p *Preload) error {
	if p == nil {
		return nil
	}
	maxChars := d.cfg.MaxChars()
	for i, s := range p.Strings {
		if len(s) < 2 {
			return fmt.Errorf("core: preload string %d has %d chars; literals are implicit", i, len(s))
		}
		if len(s) > maxChars {
			return fmt.Errorf("core: preload string %d has %d chars, entry bound is %d", i, len(s), maxChars)
		}
		if d.full() {
			return fmt.Errorf("core: preload overflows the dictionary at string %d", i)
		}
		// Every character must be a valid C_C-bit value: the flat child
		// index packs characters into 16-bit key fields, and an
		// out-of-range character could never decompress anyway.
		for k, ch := range s {
			if ch >= uint64(d.cfg.Literals()) {
				return fmt.Errorf("core: preload string %d has invalid character %d at position %d", i, ch, k)
			}
		}
		// Walk the prefix; it must already exist.
		cur := Code(s[0])
		for k := 1; k < len(s)-1; k++ {
			child, ok := d.lookupChild(cur, s[k])
			if !ok {
				return fmt.Errorf("core: preload string %d is not prefix-closed at char %d", i, k)
			}
			cur = child
		}
		last := s[len(s)-1]
		if _, dup := d.lookupChild(cur, last); dup {
			return fmt.Errorf("core: preload string %d duplicates an entry", i)
		}
		d.commitAdd(cur, last)
	}
	return nil
}

// Train builds a preload dictionary from a training stream: it compresses
// the stream under cfg and keeps the first maxEntries dictionary strings
// in creation order, which is prefix-closed by construction. maxEntries
// of 0 keeps everything the training run built.
func Train(stream *bitvec.Vector, cfg Config, maxEntries int) (*Preload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Full == FullReset {
		return nil, fmt.Errorf("core: training with FullReset would not be prefix-closed")
	}
	d := newDict(cfg)
	// Compress the training stream, then replay its code sequence: the
	// decoder-side rebuild yields the same dictionary deterministically.
	res, err := Compress(stream, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := replayInto(d, res.Codes); err != nil {
		return nil, err
	}
	n := int(d.next) - cfg.Literals()
	if maxEntries > 0 && maxEntries < n {
		n = maxEntries
	}
	p := &Preload{Strings: make([][]uint64, 0, n)}
	for i := 0; i < n; i++ {
		c := Code(cfg.Literals() + i)
		p.Strings = append(p.Strings, d.stringOf(c, nil))
	}
	return p, nil
}

// replayInto rebuilds the decoder-side dictionary for a code sequence.
func replayInto(d *dict, codes []Code) (int, error) {
	prev := noCode
	var scratch []uint64
	for i, c := range codes {
		pending := false
		if prev != noCode {
			pending = d.prepareAdd(prev)
		}
		scratch = scratch[:0]
		switch {
		case d.defined(c):
			scratch = d.stringOf(c, scratch)
		case pending && c == d.next:
			scratch = d.stringOf(prev, scratch)
			scratch = append(scratch, d.firstChar[prev])
		default:
			return 0, fmt.Errorf("core: replay hit undefined code %d at %d", c, i)
		}
		if pending {
			d.commitAdd(prev, scratch[0])
		}
		prev = c
	}
	return int(d.next), nil
}

// CompressWithPreload is Compress starting from a warm dictionary. The
// decompressor must be given the same preload; a nil or empty preload
// is plain Compress.
func CompressWithPreload(stream *bitvec.Vector, cfg Config, pre *Preload, opts ...Option) (*Result, error) {
	if err := checkPreload(cfg, pre); err != nil {
		return nil, err
	}
	o := options(opts)
	return compressInternal(o.ctx, stream, cfg, o.rec, nil, func() (*dict, error) { return preloadedDict(cfg, pre, o.rec) })
}

// DecompressWithPreload inverts CompressWithPreload; a nil or empty
// preload is plain Decompress. WithTrace records the run as a
// SpanDecode child span carrying the code count and output length.
func DecompressWithPreload(codes []Code, cfg Config, pre *Preload, outBits int, opts ...Option) (*bitvec.Vector, error) {
	if err := checkPreload(cfg, pre); err != nil {
		return nil, err
	}
	mk := func() (*dict, error) { return preloadedDict(cfg, pre, nil) }
	o := options(opts)
	if o.rec == nil {
		return decompressWithDict(codes, cfg, outBits, nil, mk)
	}
	_, sp := o.rec.StartSpan(o.ctx, SpanDecode)
	out, err := decompressWithDict(codes, cfg, outBits, nil, mk)
	sp.End(telemetry.F("codes", len(codes)), telemetry.F("out_bits", outBits))
	return out, err
}

func checkPreload(cfg Config, pre *Preload) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if pre.Entries() > 0 && cfg.Full == FullReset {
		return fmt.Errorf("core: FullReset would discard the preloaded dictionary inconsistently")
	}
	return nil
}

// preloadedDict acquires a dictionary with pre installed; a nil or
// empty preload leaves it fresh.
func preloadedDict(cfg Config, pre *Preload, rec *telemetry.Recorder) (*dict, error) {
	d := acquireDict(cfg, rec)
	if err := d.preload(pre); err != nil {
		releaseDict(d)
		return nil, err
	}
	return d, nil
}
