package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"lzwtc"
	"lzwtc/internal/bench"
	"lzwtc/internal/dictstore"
)

// Every op runs under its circuit's paper configuration: C_C = 7,
// N from the Table 3 profile, C_MDATA = 64, freeze when full.
const (
	charBits  = 7
	entryBits = 64
)

// Workload shapes (see README.md for why each was chosen).
const (
	smallSlice  = 16 // patterns per svc_small request
	jobVariants = 3  // re-seeded variants per svc_jobs_dict circuit
	jobShard    = 64 // ShardPatterns of every svc_jobs_dict job
)

var (
	smallCircuits = []string{"s5378", "s9234", "s13207", "s15850", "b14", "b20"}
	dictCircuits  = []string{"s38417", "s38584", "b17", "b22"}
)

// input is one distinct request body of a workload together with the
// exact bytes its round trip must produce.
type input struct {
	name  string
	cfg   lzwtc.Config
	text  []byte         // cube text in
	set   *lzwtc.TestSet // text parsed, what the client sends
	bits  int64          // original test-set volume
	shard int            // ShardPatterns; 0 sends one frame
	base  *trainBase     // shared dictionary the op names; nil for none

	container []byte // reference container, compared byte for byte
	filled    []byte // reference cube text out, passed lzwtc.Verify
	compBits  int64  // compressed volume of the reference (codes × C_E)
}

// trainBase is one svc_jobs_dict circuit's training set and the
// dictionary trained from it.
type trainBase struct {
	name string
	cfg  lzwtc.Config
	text []byte
	set  *lzwtc.TestSet
	key  string
	ent  *dictstore.Entry
}

// corpus is everything a workload generates from its seed.
type corpus struct {
	inputs []*input
	bases  []*trainBase
}

// reseed derives the generator seed of one circuit variant; variant 0
// is the seed's base set.
func reseed(p bench.Profile, seed int64, variant int) bench.Profile {
	p.Seed = p.Seed + 1_000_003*(16*seed+int64(variant))
	return p
}

func paperConfig(p bench.Profile) lzwtc.Config {
	return lzwtc.Config{CharBits: charBits, DictSize: p.DictSize, EntryBits: entryBits}
}

func cubeText(ts *lzwtc.TestSet) ([]byte, error) {
	var b bytes.Buffer
	if err := ts.WriteCubes(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func newInput(name string, cfg lzwtc.Config, ts *lzwtc.TestSet) (*input, error) {
	text, err := cubeText(ts)
	if err != nil {
		return nil, err
	}
	return &input{name: name, cfg: cfg, text: text, set: ts, bits: int64(ts.TotalBits())}, nil
}

// generate builds a workload's inputs from bench.Profiles and seed.
func generate(workload string, seed int64) (*corpus, error) {
	c := &corpus{}
	switch workload {
	case "paper_local":
		for _, p := range bench.Profiles() {
			in, err := newInput(p.Name, paperConfig(p), reseed(p, seed, 0).Generate())
			if err != nil {
				return nil, err
			}
			c.inputs = append(c.inputs, in)
		}
	case "svc_small":
		for _, name := range smallCircuits {
			p, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			full := reseed(p, seed, 0).Generate()
			for lo := 0; lo+smallSlice <= len(full.Cubes); lo += smallSlice {
				ts := lzwtc.NewTestSet(full.Width)
				ts.Cubes = full.Cubes[lo : lo+smallSlice]
				in, err := newInput(fmt.Sprintf("%s/%d", name, lo/smallSlice), paperConfig(p), ts)
				if err != nil {
					return nil, err
				}
				c.inputs = append(c.inputs, in)
			}
		}
	case "svc_jobs_dict":
		for _, name := range dictCircuits {
			p, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			ts := reseed(p, seed, 0).Generate()
			text, err := cubeText(ts)
			if err != nil {
				return nil, err
			}
			b := &trainBase{name: name, cfg: paperConfig(p), text: text, set: ts}
			c.bases = append(c.bases, b)
			for v := 1; v <= jobVariants; v++ {
				in, err := newInput(fmt.Sprintf("%s/v%d", name, v), b.cfg, reseed(p, seed, v).Generate())
				if err != nil {
					return nil, err
				}
				in.shard, in.base = jobShard, b
				c.inputs = append(c.inputs, in)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return c, nil
}

// hash fingerprints every cube text the workload generated, training
// sets included, so a change to the generator cannot swap the workload
// unnoticed.
func (c *corpus) hash() string {
	h := sha256.New()
	for _, b := range c.bases {
		fmt.Fprintf(h, "train %s %d\n", b.name, len(b.text))
		h.Write(b.text)
	}
	for _, in := range c.inputs {
		fmt.Fprintf(h, "input %s %d\n", in.name, len(in.text))
		h.Write(in.text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// configs describes each circuit's configuration for the pin file.
func (c *corpus) configs() map[string]string {
	out := map[string]string{}
	for _, in := range c.inputs {
		name, _, _ := strings.Cut(in.name, "/")
		out[name] = fmt.Sprintf("C_C=%d N=%d C_MDATA=%d shard=%d dict=%t",
			in.cfg.CharBits, in.cfg.DictSize, in.cfg.EntryBits, in.shard, in.base != nil)
	}
	return out
}

// prepare computes every input's reference outputs in-process. A
// dictionary input is compressed with the preload trained in-process
// and resolved through a local store, as dict_diff_test.go builds its
// baseline, and framed with the store entry's reference. Every
// reference decompression must pass lzwtc.Verify against the original
// cubes.
func (c *corpus) prepare(ctx context.Context) error {
	if len(c.bases) > 0 {
		store, err := lzwtc.OpenDictStore(lzwtc.DictStoreConfig{})
		if err != nil {
			return err
		}
		defer store.Close() //nolint:errcheck // memory-only store
		for _, b := range c.bases {
			key := lzwtc.DictKeyFor(b.set, b.cfg)
			ent, _, err := store.GetOrTrain(ctx, key, b.cfg, func(context.Context) (*lzwtc.Preload, error) {
				return lzwtc.Train(b.set, b.cfg, 0)
			})
			if err != nil {
				return fmt.Errorf("training %s: %w", b.name, err)
			}
			b.key, b.ent = key.String(), ent
		}
	}
	for _, in := range c.inputs {
		var buf bytes.Buffer
		if in.base != nil {
			sr, err := lzwtc.CompressShardedPreloaded(ctx, in.set, in.cfg, in.base.ent.Pre, in.shard, lzwtc.BatchOptions{})
			if err != nil {
				return fmt.Errorf("reference %s: %w", in.name, err)
			}
			if err := lzwtc.WriteWireDict(&buf, sr, lzwtc.DictEntryRef(in.base.ent)); err != nil {
				return err
			}
			in.compBits = int64(sr.CompressedBits())
		} else {
			res, err := lzwtc.Compress(in.set, in.cfg)
			if err != nil {
				return fmt.Errorf("reference %s: %w", in.name, err)
			}
			if err := res.WriteWire(&buf); err != nil {
				return err
			}
			in.compBits = int64(res.CompressedBits())
		}
		in.container = buf.Bytes()
		filled, err := lzwtc.DecompressWireDict(bytes.NewReader(in.container), dictResolver(c.bases))
		if err != nil {
			return fmt.Errorf("reference %s: %w", in.name, err)
		}
		if err := lzwtc.Verify(in.set, filled); err != nil {
			return fmt.Errorf("reference %s: %w", in.name, err)
		}
		if in.filled, err = cubeText(filled); err != nil {
			return err
		}
	}
	return nil
}

// dictResolver resolves 'D' frames against the corpus's own trained
// dictionaries.
type dictResolver []*trainBase

func (r dictResolver) ResolveDict(_ context.Context, ref lzwtc.DictRef) (*lzwtc.Preload, error) {
	for _, b := range r {
		if b.ent.Key == ref.Key && b.ent.Digest == ref.Digest {
			return b.ent.Pre, nil
		}
	}
	return nil, fmt.Errorf("no trained dictionary %x", ref.Key)
}

// totals sums the original and compressed volume of one pass over the
// inputs; ratio_pct is computed from these integers so it repeats
// exactly for a given seed.
func (c *corpus) totals() (bits, compBits int64) {
	for _, in := range c.inputs {
		bits += in.bits
		compBits += in.compBits
	}
	return bits, compBits
}

func ratioPct(bits, compBits int64) float64 {
	return 100 * (1 - float64(compBits)/float64(bits))
}
