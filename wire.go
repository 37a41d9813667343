package lzwtc

import (
	"context"
	"fmt"
	"io"

	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// Wire-format typed errors, re-exported for callers that never import
// internal packages. Test with errors.Is.
var (
	ErrWireBadMagic  = wire.ErrBadMagic
	ErrWireVersion   = wire.ErrVersion
	ErrWireChecksum  = wire.ErrChecksum
	ErrWireTruncated = wire.ErrTruncated
)

// Trace span names for wire-container framing, recorded by the wire
// writers and readers under WithTrace.
const (
	SpanWireEncode = "wire.encode" // frame + CRC a container
	SpanWireDecode = "wire.decode" // parse + verify + decompress a container
)

// WriteWire streams a Result to w in the versioned wire format: a
// CRC-protected header carrying the full Config and pattern width, one
// data frame with the code stream, and an explicit EOS frame. The
// output is tamper-evident (per-region CRC32C) and truncation-evident
// (missing EOS). WithTrace wraps the framing in a SpanWireEncode span.
func (r *Result) WriteWire(w io.Writer, opts ...Option) error {
	return writeContainer(w, r.Stream.Cfg, r.Width, nil, []*core.Result{r.Stream}, []int{r.Patterns}, options(opts))
}

// WriteWireSharded streams a sharded compression as one container with
// a frame per shard. Each frame is independently decompressible (a
// frame boundary is a FullReset), so a streaming reader can decompress
// shard by shard in constant memory. WithTrace wraps the framing in a
// SpanWireEncode span carrying the frame count.
func WriteWireSharded(w io.Writer, s *ShardedResult, opts ...Option) error {
	return writeContainer(w, s.Cfg, s.Width, nil, s.Shards, s.ShardPatterns, options(opts))
}

// writeContainer frames one container — header, the 'D' frame when ref
// is set, one data frame per stream, EOS — under a SpanWireEncode span.
func writeContainer(w io.Writer, cfg Config, width int, ref *DictRef, streams []*core.Result, patterns []int, o Option) error {
	_, sp := o.rec.StartSpan(o.ctx, SpanWireEncode)
	err := frameContainer(w, wire.Header{Cfg: cfg, Width: width}, ref, streams, patterns)
	sp.End(telemetry.F("frames", len(streams)), telemetry.F("ok", err == nil))
	return err
}

func frameContainer(w io.Writer, hdr wire.Header, ref *DictRef, streams []*core.Result, patterns []int) error {
	ww, err := wire.NewWriter(w, hdr)
	if err != nil {
		return err
	}
	if ref != nil {
		if err := ww.WriteDictRef(*ref); err != nil {
			return err
		}
	}
	for i, st := range streams {
		if err := ww.WriteResult(st, patterns[i]); err != nil {
			return err
		}
	}
	return ww.Close()
}

// ReadWireResult parses a single-frame wire container back into a
// Result. Multi-frame (sharded) containers are rejected — their frames
// have independent dictionary states and cannot merge into one code
// stream; use DecompressWire for those.
func ReadWireResult(r io.Reader) (*Result, error) {
	wr, err := wire.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := wr.Header()
	f, err := wr.ReadFrame()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("lzwtc: wire container has no data frames")
		}
		return nil, err
	}
	if _, err := wr.ReadFrame(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("lzwtc: wire container has multiple frames; use DecompressWire")
		}
		return nil, err
	}
	res := &core.Result{Cfg: hdr.Cfg, Codes: f.Codes, InputBits: f.InputBits}
	res.Stats.InputBits = f.InputBits
	res.Stats.CodesEmitted = len(f.Codes)
	res.Stats.CompressedBits = len(f.Codes) * hdr.Cfg.CodeBits()
	return &Result{
		Stream:       res,
		Width:        hdr.Width,
		OriginalBits: hdr.Width * f.Patterns,
		Patterns:     f.Patterns,
	}, nil
}

// DecompressWire streams any wire container — single-frame or sharded —
// into the fully specified test set, decompressing frame by frame. The
// whole container is verified: a corrupt or truncated stream returns a
// typed error before (or instead of) partial output, and a container
// naming a dictionary fails with ErrDictNotFound (use
// DecompressWireDict). WithTrace runs the parse under a SpanWireDecode
// span with a nested core.decode span per frame.
func DecompressWire(r io.Reader, opts ...Option) (*TestSet, error) {
	return DecompressWireDict(r, nil, opts...)
}

// decompressWire is the one container decode body behind DecompressWire
// and DecompressWireDict: a 'D' frame is resolved through res (nil →
// ErrDictNotFound) and every data frame decompresses with the resolved
// preload installed.
func decompressWire(ctx context.Context, r io.Reader, res DictResolver, rec *Recorder) (*TestSet, int, error) {
	wr, err := wire.NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	hdr := wr.Header()
	out := NewTestSet(hdr.Width)
	var pre *Preload
	for {
		f, err := wr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, wr.Frames(), err
		}
		// The 'D' frame precedes all data frames, so the reference is
		// final by the time the first data frame arrives.
		if ref, ok := wr.DictRef(); ok && pre == nil {
			if res == nil {
				return nil, wr.Frames(), fmt.Errorf("lzwtc: container references dictionary %x but no resolver given: %w",
					ref.Key, ErrDictNotFound)
			}
			if pre, err = res.ResolveDict(ctx, ref); err != nil {
				return nil, wr.Frames(), fmt.Errorf("lzwtc: resolving container dictionary: %w", err)
			}
		}
		stream, err := core.DecompressWithPreload(f.Codes, hdr.Cfg, pre, f.InputBits, core.WithTrace(ctx, rec))
		if err != nil {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d: %w", wr.Frames()-1, err)
		}
		group, err := core.Deserialize(stream, hdr.Width, hdr.Cfg.CharBits, core.WithTrace(ctx, rec))
		if err != nil {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d: %w", wr.Frames()-1, err)
		}
		if len(group.Cubes) != f.Patterns {
			return nil, wr.Frames(), fmt.Errorf("lzwtc: wire frame %d decompressed to %d patterns, want %d",
				wr.Frames()-1, len(group.Cubes), f.Patterns)
		}
		out.Cubes = append(out.Cubes, group.Cubes...)
	}
	return out, wr.Frames(), nil
}
