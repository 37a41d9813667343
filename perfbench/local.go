package main

import (
	"bytes"
	"context"
	"io"
	"time"

	"lzwtc"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// localOp is one paper_local round trip exactly as a library user
// writes it: cube text → ReadTestSet → Compress → WriteWire →
// DecompressWire → WriteCubes. Only the byte comparisons are outside
// the timed spans.
func localOp(in *input) op {
	o := op{bits: in.bits, compBits: in.compBits}
	t0 := time.Now()
	ts, err := lzwtc.ReadTestSet(bytes.NewReader(in.text))
	if err != nil {
		return o
	}
	res, err := lzwtc.Compress(ts, in.cfg)
	if err != nil {
		return o
	}
	var container bytes.Buffer
	if err := res.WriteWire(&container); err != nil {
		return o
	}
	t1 := time.Now()
	out, err := lzwtc.DecompressWire(bytes.NewReader(container.Bytes()))
	if err != nil {
		return o
	}
	var text bytes.Buffer
	if err := out.WriteCubes(&text); err != nil {
		return o
	}
	t2 := time.Now()
	o.compress, o.decompress = t1.Sub(t0), t2.Sub(t1)
	o.ok = bytes.Equal(container.Bytes(), in.container) && bytes.Equal(text.Bytes(), in.filled)
	return o
}

// Span names for the layers that have no production span. The others
// reuse the production names, so a bench trace and a live trace mean
// the same thing by "serialize".
const (
	spanParse       = "bitvec.parse"
	spanDeserialize = "bitvec.deserialize"
	spanRender      = "bitvec.render"
	spanOp          = "bench.op"
)

// layers accumulates the per-layer work and time of replayed ops.
type layers struct {
	ops                                               int64
	parse, serialize, match, encode                   time.Duration
	wireDecode, decode, deserialize, render           time.Duration
	parseAlloc, bitvecAlloc                           uint64
	bits, chars, codes, stringCodes, dynFills, resets int64
	containerBytes, frames                            int64
	failed                                            int64
}

func (l *layers) total() time.Duration {
	return l.parse + l.serialize + l.match + l.encode + l.wireDecode + l.decode + l.deserialize + l.render
}

// tracer times one call into a layer: its wall time and the heap bytes
// it allocated land in the given accumulators, and a span of the
// given name is recorded (rec may be nil).
type tracer struct {
	rec *telemetry.Recorder
	ctx context.Context
}

func (t tracer) call(name string, dur *time.Duration, alloc *uint64, f func() error) error {
	_, sp := t.rec.StartSpan(t.ctx, name)
	a0 := heapAllocs()
	t0 := time.Now()
	err := f()
	*dur += time.Since(t0)
	if alloc != nil {
		*alloc += heapAllocs() - a0
	}
	sp.End(telemetry.F("ok", err == nil))
	return err
}

// replayOp runs one round trip with every layer called separately,
// the same calls the root functions make:
//   - lzwtc.Compress = SerializeAligned, then core.Compress (per shard,
//     from the shared dictionary where the input names one), then the
//     container writer;
//   - lzwtc.DecompressWire = the wire reader, then core.Decompress and
//     DeserializeAligned per frame.
//
// Both outputs are checked byte for byte against the references.
func replayOp(rec *telemetry.Recorder, in *input, l *layers) {
	ctx, root := rec.StartSpan(context.Background(), spanOp)
	defer root.End(telemetry.F("input", in.name))
	t := tracer{rec: rec, ctx: ctx}
	ok := false
	defer func() {
		l.ops++
		if !ok {
			l.failed++
		}
	}()
	cc := in.cfg.CharBits

	var ts *lzwtc.TestSet
	if t.call(spanParse, &l.parse, &l.parseAlloc, func() (err error) {
		ts, err = lzwtc.ReadTestSet(bytes.NewReader(in.text))
		return err
	}) != nil {
		return
	}
	groups := parallel.SplitPatterns(ts, in.shard)
	var pre *core.Preload
	if in.base != nil {
		pre = in.base.ent.Pre
	}
	shards := make([]*core.Result, len(groups))
	shardPatterns := make([]int, len(groups))
	for i, g := range groups {
		var stream *bitvec.Vector
		_ = t.call(core.SpanSerialize, &l.serialize, &l.bitvecAlloc, func() error {
			stream = g.SerializeAligned(cc)
			return nil
		})
		if t.call(core.SpanMatchLoop, &l.match, nil, func() (err error) {
			if pre != nil {
				shards[i], err = core.CompressWithPreload(stream, in.cfg, pre)
			} else {
				shards[i], err = core.Compress(stream, in.cfg)
			}
			return err
		}) != nil {
			return
		}
		shardPatterns[i] = len(g.Cubes)
		st := shards[i].Stats
		l.chars += int64(st.Chars)
		l.codes += int64(st.CodesEmitted)
		l.stringCodes += int64(st.StringCodes)
		l.dynFills += int64(st.DynamicFills)
		l.resets += int64(st.DictResets)
	}

	var container bytes.Buffer
	if t.call(lzwtc.SpanWireEncode, &l.encode, nil, func() error {
		if in.base != nil {
			sr := &lzwtc.ShardedResult{Cfg: in.cfg, Width: ts.Width, Patterns: len(ts.Cubes),
				OriginalBits: ts.TotalBits(), Shards: shards, ShardPatterns: shardPatterns}
			return lzwtc.WriteWireDict(&container, sr, lzwtc.DictEntryRef(in.base.ent))
		}
		res := &lzwtc.Result{Stream: shards[0], Width: ts.Width, OriginalBits: ts.TotalBits(), Patterns: len(ts.Cubes)}
		return res.WriteWire(&container)
	}) != nil {
		return
	}
	l.containerBytes += int64(container.Len())

	var hdr wire.Header
	var frames []*wire.Frame
	if t.call(lzwtc.SpanWireDecode, &l.wireDecode, nil, func() error {
		wr, err := wire.NewReader(bytes.NewReader(container.Bytes()))
		if err != nil {
			return err
		}
		hdr = wr.Header()
		for {
			f, err := wr.ReadFrame()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			frames = append(frames, f)
		}
	}) != nil {
		return
	}
	l.frames += int64(len(frames))
	out := lzwtc.NewTestSet(hdr.Width)
	for _, f := range frames {
		var stream *bitvec.Vector
		if t.call(core.SpanDecode, &l.decode, nil, func() (err error) {
			if pre != nil {
				stream, err = core.DecompressWithPreload(f.Codes, hdr.Cfg, pre, f.InputBits)
			} else {
				stream, err = core.Decompress(f.Codes, hdr.Cfg, f.InputBits)
			}
			return err
		}) != nil {
			return
		}
		var group *bitvec.CubeSet
		if t.call(spanDeserialize, &l.deserialize, &l.bitvecAlloc, func() (err error) {
			group, err = bitvec.DeserializeAligned(stream, hdr.Width, hdr.Cfg.CharBits)
			return err
		}) != nil {
			return
		}
		if len(group.Cubes) != f.Patterns {
			return
		}
		out.Cubes = append(out.Cubes, group.Cubes...)
	}

	var text bytes.Buffer
	if t.call(spanRender, &l.render, &l.bitvecAlloc, func() error {
		return out.WriteCubes(&text)
	}) != nil {
		return
	}
	l.bits += in.bits
	ok = bytes.Equal(container.Bytes(), in.container) && bytes.Equal(text.Bytes(), in.filled)
}
