package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"lzwtc/internal/dictstore"
)

// dictDiffConfig maps a conformance configuration onto the dictionary
// tier's contract: preloads are meaningless under FullReset (the
// dictionary is discarded mid-stream), so those corpus entries exercise
// the same corner under FullFreeze instead.
func dictDiffConfig(cfg Config) Config {
	if cfg.Full == FullReset {
		cfg.Full = FullFreeze
	}
	return cfg
}

// fatalTrain is a TrainFunc for paths that must already be warm: any
// call means the store failed to serve from cache.
func fatalTrain(t *testing.T, path string) dictstore.TrainFunc {
	return func(context.Context) (*Preload, error) {
		t.Fatalf("%s resolution invoked the training function", path)
		return nil, nil
	}
}

// cubesText renders a test set in canonical cube-text form for
// byte-level equality checks between decompression paths.
func cubesText(t *testing.T, ts *TestSet) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ts.WriteCubes(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDictDifferentialCompression proves the store is transparent: for
// every conformance-corpus case, compressing with a dictionary resolved
// cold (trained through the store), warm (memory LRU hit) or
// disk-rehydrated (fresh process over the same directory) produces a
// container byte-identical to compressing with a freshly trained
// in-process preload.
func TestDictDifferentialCompression(t *testing.T) {
	ctx := context.Background()
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := dictDiffConfig(c.cfg)
			ts := c.build()

			// Baseline: train and compress entirely in-process, no store.
			basePre, err := Train(ts, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			compressVia := func(pre *Preload) []byte {
				t.Helper()
				res, err := Compress(ts, cfg, WithPreload(pre))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.WriteWire(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want := compressVia(basePre)

			dir := t.TempDir()
			store, err := OpenDictStore(DictStoreConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			key := DictKeyFor(ts, cfg)

			// Cold: first resolution trains through the store.
			trains := 0
			cold, src, err := store.GetOrTrain(ctx, key, cfg, func(context.Context) (*Preload, error) {
				trains++
				return Train(ts, cfg, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if src != dictstore.SourceTrained || trains != 1 {
				t.Fatalf("cold resolve: source %v, %d trains", src, trains)
			}
			if got := compressVia(cold.Pre); !bytes.Equal(got, want) {
				t.Fatal("cold-store dictionary compressed differently from the in-process baseline")
			}

			// Warm: the memory LRU serves the entry; training must not run.
			warm, src, err := store.GetOrTrain(ctx, key, cfg, fatalTrain(t, "warm"))
			if err != nil {
				t.Fatal(err)
			}
			if src != dictstore.SourceMem {
				t.Fatalf("warm resolve came from %v, want memory", src)
			}
			if got := compressVia(warm.Pre); !bytes.Equal(got, want) {
				t.Fatal("warm-hit dictionary compressed differently from the in-process baseline")
			}

			// Disk: a fresh store over the same directory rehydrates the
			// blob; the digest proves it is bit-identical to what was stored.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenDictStore(DictStoreConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			rehydrated, src, err := reopened.GetOrTrain(ctx, key, cfg, fatalTrain(t, "disk"))
			if err != nil {
				t.Fatal(err)
			}
			if src != dictstore.SourceDisk {
				t.Fatalf("rehydrated resolve came from %v, want disk", src)
			}
			if rehydrated.Digest != cold.Digest {
				t.Fatal("disk rehydration changed the dictionary digest")
			}
			if got := compressVia(rehydrated.Pre); !bytes.Equal(got, want) {
				t.Fatal("disk-rehydrated dictionary compressed differently from the in-process baseline")
			}
		})
	}
}

// TestDictDifferentialWireRoundTrip proves the 'D'-frame container
// closes the loop for every conformance case: a receiver holding only
// the store reconstructs the same fully specified set the sender's
// in-process decompression produces, in both the single-frame and the
// sharded container forms.
func TestDictDifferentialWireRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := dictDiffConfig(c.cfg)
			ts := c.build()
			store, err := OpenDictStore(DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ent, _, err := store.GetOrTrain(ctx, DictKeyFor(ts, cfg), cfg,
				func(context.Context) (*Preload, error) { return Train(ts, cfg, 0) })
			if err != nil {
				t.Fatal(err)
			}
			ref := DictEntryRef(ent)

			res, err := Compress(ts, cfg, WithPreload(ent.Pre))
			if err != nil {
				t.Fatal(err)
			}
			wantSet, err := Decompress(res, WithPreload(ent.Pre))
			if err != nil {
				t.Fatal(err)
			}
			want := cubesText(t, wantSet)

			// Single-frame 'D' container.
			var buf bytes.Buffer
			if err := res.WriteWireDictResult(&buf, ref); err != nil {
				t.Fatal(err)
			}
			got, err := DecompressWireDict(bytes.NewReader(buf.Bytes()), store)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(ts, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cubesText(t, got), want) {
				t.Fatal("wire 'D'-frame decompression diverged from in-process decompression")
			}

			// Sharded 'D' container: every frame reinstalls the preload, so
			// the in-process reference is the sharded decompressor (per-shard
			// dictionary restarts fill don't-cares differently from the
			// continuous stream).
			sharded, err := CompressShardedPreloaded(ctx, ts, cfg, ent.Pre, 5, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantShardSet, err := DecompressShardedPreloaded(ctx, sharded, ent.Pre, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantShard := cubesText(t, wantShardSet)
			buf.Reset()
			if err := WriteWireDict(&buf, sharded, ref); err != nil {
				t.Fatal(err)
			}
			got, err = DecompressWireDict(bytes.NewReader(buf.Bytes()), store)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(ts, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cubesText(t, got), wantShard) {
				t.Fatal("sharded 'D'-frame decompression diverged from in-process sharded decompression")
			}

			// A container naming a dictionary nobody has fails typed, and a
			// resolver-less receiver — DecompressWire included — reports the
			// same class.
			if _, err := DecompressWireDict(bytes.NewReader(buf.Bytes()), nil); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("resolver-less decode: got %v, want ErrDictNotFound", err)
			}
			if _, err := DecompressWire(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("DecompressWire on a 'D' container: got %v, want ErrDictNotFound", err)
			}
			empty, err := OpenDictStore(DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer empty.Close()
			if _, err := DecompressWireDict(bytes.NewReader(buf.Bytes()), empty); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("empty-store decode: got %v, want ErrDictNotFound", err)
			}
		})
	}
}
