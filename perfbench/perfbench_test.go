package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			g, w := got[i], want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, harness %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestBenchmarkJSONRecordsPins checks that each workload's entry in
// BENCHMARK.json names the default seed with its pinned ratio and input
// hash, and the pinned typical and tail percentiles.
func TestBenchmarkJSONRecordsPins(t *testing.T) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(p.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, pins.json %d", len(b.Workloads), len(p.Workloads))
	}
	for _, w := range b.Workloads {
		wp, ok := p.Workloads[w.Name]
		if !ok {
			t.Errorf("workload %s has no pin", w.Name)
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("seed %d: ratio_pct %s, sha256 %s", p.DefaultSeed,
				strconv.FormatFloat(wp.RatioPct, 'g', -1, 64), wp.InputsSHA256),
			fmt.Sprintf("typical p%g, tail p%g;", wp.TypicalPercentile, wp.TailPercentile),
		} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("%s: why %q does not record %q", w.Name, w.Why, want)
			}
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d bytes, BENCHMARK.json allows 200", w.Name, len(w.Why))
		}
		if n := wp.TailSamples; beyond(wp.TailPercentile, n) < minBeyond {
			t.Errorf("%s: p%g leaves %d of the %d recorded samples beyond it", w.Name, wp.TailPercentile, beyond(wp.TailPercentile, n), n)
		}
	}
}

// TestRunsEndToEnd runs every workload briefly, untraced and traced,
// at the default seed and at a second one, through the same entry
// point the command uses.
func TestRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	// The traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // back to where the test started
	for _, w := range []string{"paper_local", "svc_small", "svc_jobs_dict"} {
		for _, traced := range []bool{false, true} {
			args := []string{"--workload", w, "--seconds", "1", "--trace", "0"}
			defs := endToEnd
			if traced {
				args = []string{"--workload", w, "--seconds", "1", "--trace", "1", "--seed", "2"}
				defs = perLayer
			}
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%v: %+v", args, res)
			}
			if w == "svc_jobs_dict" && traced {
				if hs := res.Metrics["dictstore.hit_share"].Value; hs != 1 {
					t.Errorf("dictstore.hit_share = %v after set-up, want 1", hs)
				}
			}
		}
	}
}
