package core

import (
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// DecompressTraceEvent reports one decompressor step, mirroring the
// columns of the paper's Figure 4.
type DecompressTraceEvent struct {
	Step     int
	Input    Code   // compressed character consumed
	Buffer   string // previous code (Buffer register), "" on the first step
	Output   string // uncompressed bits appended to the output
	NewEntry *TraceEntry
	Special  bool // the not-yet-defined-code case (Figure 4f)
}

// Decompress inverts a code sequence produced by Compress under the same
// configuration. outBits is the original stream length; the decompressed
// stream is truncated to it (the final character may have been X-padded).
// The returned vector is fully specified. WithTrace records the run as
// a SpanDecode child span; without a recorder it adds one pointer check.
func Decompress(codes []Code, cfg Config, outBits int, opts ...Option) (*bitvec.Vector, error) {
	return DecompressWithPreload(codes, cfg, nil, outBits, opts...)
}

// DecompressTrace is Decompress with an optional per-step trace callback
// (used to regenerate the paper's Figure 4).
func DecompressTrace(codes []Code, cfg Config, outBits int, trace func(DecompressTraceEvent)) (*bitvec.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return decompressWithDict(codes, cfg, outBits, trace, func() (*dict, error) { return acquireDict(cfg, nil), nil })
}

// Deserialize splits a decompressed C_C-aligned stream back into its
// width-bit patterns (bitvec.DeserializeAligned). WithTrace records it
// as a SpanDeserialize child span, the mirror of the serialize span on
// the compress side; without a recorder it adds one pointer check.
func Deserialize(stream *bitvec.Vector, width, charBits int, opts ...Option) (*bitvec.CubeSet, error) {
	o := options(opts)
	_, sp := o.rec.StartSpan(o.ctx, SpanDeserialize)
	ts, err := bitvec.DeserializeAligned(stream, width, charBits)
	// Guarded: boxing the field allocates even when the span is nil.
	if sp != nil {
		sp.End(telemetry.F("bits", stream.Len()))
	}
	return ts, err
}

func decompressWithDict(codes []Code, cfg Config, outBits int, trace func(DecompressTraceEvent), mk func() (*dict, error)) (*bitvec.Vector, error) {
	if outBits < 0 {
		return nil, fmt.Errorf("core: negative output length %d", outBits)
	}
	out := bitvec.New(outBits)
	if len(codes) == 0 {
		if outBits != 0 {
			return nil, fmt.Errorf("core: empty code stream for %d output bits", outBits)
		}
		return out, nil
	}

	cc := cfg.CharBits
	d, err := mk()
	if err != nil {
		return nil, err
	}
	defer releaseDict(d)
	// The decompressor only replays adds — it never asks for a child —
	// so the dictionary can skip child-index maintenance entirely. Set
	// after mk(): a preload factory still installs its index (preload
	// verifies prefix-closure through lookupChild).
	d.noChildIndex = true
	pos := 0
	prev := noCode
	var scratch []uint64

	writeChars := func(chars []uint64) {
		for _, ch := range chars {
			out.SetChunk(pos, cc, ch)
			pos += cc
		}
	}

	for step, c := range codes {
		// Mirror the compressor's ordering: its dictionary-add attempt —
		// including any FullReset — happened after emitting the previous
		// code and before emitting this one, so the add must be prepared
		// before this code is interpreted.
		pending := false
		if prev != noCode {
			pending = d.prepareAdd(prev)
		}

		special := false
		scratch = scratch[:0]
		switch {
		case d.defined(c):
			scratch = d.stringOf(c, scratch)
		case pending && c == d.next:
			// Figure 4f: the code references the entry about to be created.
			// Its string is string(prev) + firstChar(prev).
			scratch = d.stringOf(prev, scratch)
			scratch = append(scratch, d.firstChar[prev])
			special = true
		default:
			return nil, fmt.Errorf("core: code %d at position %d is undefined (next free %d)", c, step, d.next)
		}

		var entry *TraceEntry
		if pending {
			nc := d.commitAdd(prev, scratch[0])
			if trace != nil {
				// The rendered entry string exists only for the trace; the
				// untraced hot path never materializes it.
				entry = &TraceEntry{Code: nc, Str: stringBits(d, nc, cc)}
			}
			if special && nc != c {
				return nil, fmt.Errorf("core: special-case entry mismatch: created %d, referenced %d", nc, c)
			}
		}

		if pos+len(scratch)*cc < pos { // overflow guard
			return nil, fmt.Errorf("core: output overflow")
		}
		if trace != nil {
			outStr := ""
			for _, ch := range scratch {
				outStr += charBits(ch, cc)
			}
			buf := ""
			if prev != noCode {
				buf = bufferLabel(d, prev, cc)
			}
			trace(DecompressTraceEvent{Step: step, Input: c, Buffer: buf, Output: outStr, NewEntry: entry, Special: special})
		}
		writeChars(scratch)
		prev = c
	}

	produced := pos
	if produced < outBits {
		return nil, fmt.Errorf("core: code stream produced %d bits, need %d", produced, outBits)
	}
	if produced-outBits >= cc {
		return nil, fmt.Errorf("core: code stream produced %d bits, more than a character beyond %d", produced, outBits)
	}
	return out, nil
}
