package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lzwtc/internal/telemetry"
)

// TestCompressDecompressTraceIsOneTree: a -telemetry jsonl capture of
// compress and of decompress is one trace each, rooted at the
// subcommand's span with every core and wire phase beneath it, and
// carries no event kind besides trace spans and the compress run
// record.
func TestCompressDecompressTraceIsOneTree(t *testing.T) {
	dir := t.TempDir()
	cubes := filepath.Join(dir, "in.cubes")
	if err := os.WriteFile(cubes, []byte(strings.Repeat("01XX10XX0X110X00\n1X0X1X0X00110011\n", 16)), 0o644); err != nil {
		t.Fatal(err)
	}
	lzw := filepath.Join(dir, "in.lzw")
	for _, tc := range []struct {
		cmd  func([]string) error
		root string
		args []string
	}{
		{compress, SpanCLICompress, []string{"-in", cubes, "-out", lzw, "-char", "4", "-dict", "64", "-entry", "16"}},
		{decompress, SpanCLIDecompress, []string{"-in", lzw, "-out", filepath.Join(dir, "out.cubes")}},
	} {
		t.Run(tc.root, func(t *testing.T) {
			events := filepath.Join(dir, tc.root+".jsonl")
			if err := tc.cmd(append(tc.args, "-telemetry", "jsonl", "-telemetry-out", events)); err != nil {
				t.Fatal(err)
			}
			for kind, n := range eventKinds(t, events) {
				if kind != telemetry.EventTraceSpan && kind != "compress.run" {
					t.Fatalf("capture carries %d %q events; only trace spans and compress.run belong there", n, kind)
				}
			}

			f, err := os.Open(events)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := telemetry.ReadSpansJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			traces := telemetry.CollectTraces(spans)
			if len(traces) != 1 {
				t.Fatalf("capture holds %d traces, want 1", len(traces))
			}
			tr := traces[0]
			if len(tr.Roots) != 1 || tr.Roots[0].Name != tc.root {
				t.Fatalf("trace roots = %v, want the one %s span", spanNames(tr.Roots), tc.root)
			}
			// One root means every other span of the trace descends
			// from it; the core and wire phases must be among them.
			var phases int
			for _, n := range tr.Spans() {
				if strings.HasPrefix(n.Name, "core.") || strings.HasPrefix(n.Name, "wire.") {
					phases++
				}
			}
			if phases == 0 {
				t.Fatalf("no core.* or wire.* spans under %s: %v", tc.root, spanNames(tr.Spans()))
			}
		})
	}
}

// eventKinds counts a JSONL capture's lines by event kind.
func eventKinds(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct{ Kind string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kinds
}

func spanNames(nodes []*telemetry.SpanNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}
