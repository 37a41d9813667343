package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestSweepWorkerCountInvariant: the pool-backed sweep tables render
// identically for every worker count — the differential property at the
// table level.
func TestSweepWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	runners := map[string]func(context.Context, int) (interface{ String() string }, error){
		"table4": func(ctx context.Context, w int) (interface{ String() string }, error) {
			return Table4Ctx(ctx, w)
		},
		"table5": func(ctx context.Context, w int) (interface{ String() string }, error) {
			return Table5Ctx(ctx, w)
		},
	}
	for name, run := range runners {
		base, err := run(context.Background(), 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		for _, w := range []int{2, 5} {
			got, err := run(context.Background(), w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if got.String() != base.String() {
				t.Fatalf("%s: workers=%d renders differently than workers=1:\n%s\nvs\n%s",
					name, w, got.String(), base.String())
			}
		}
	}
}

// TestRunCtxCanceled: a canceled context fails every experiment — the
// pool-backed grids and the sequential runners alike — without running
// any work.
func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		if _, err := Run(ctx, name, 2, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under canceled context: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestRunCtxDispatch: a worker-bounded Run serves the same experiment
// set, and the same rows, as the default one.
func TestRunCtxDispatch(t *testing.T) {
	if _, err := Run(context.Background(), "no-such-table", 1, nil); err == nil {
		t.Fatal("unknown experiment did not error")
	}
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	seq, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), "table6", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(par.Rows) != fmt.Sprint(seq.Rows) {
		t.Fatalf("table6 rows differ between Table6 and a 3-worker Run:\n%v\nvs\n%v", par.Rows, seq.Rows)
	}
}
