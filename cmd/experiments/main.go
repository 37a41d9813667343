// Command experiments regenerates the paper's evaluation: every table
// and figure of Section 6.
//
//	go run ./cmd/experiments -run all
//	go run ./cmd/experiments -run table1
//	go run ./cmd/experiments -run table3 -md
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"lzwtc/internal/experiments"
	"lzwtc/internal/telemetry"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, "+strings.Join(experiments.Names(), ", "))
	md := flag.Bool("md", false, "emit GitHub-flavored markdown instead of fixed-width text")
	list := flag.Bool("list", false, "list available experiments and exit")
	workers := flag.Int("workers", 0, "worker bound for pool-backed sweep tables (0 = GOMAXPROCS)")
	tel := flag.String("telemetry", "", "event stream format to stderr: text or jsonl (off when empty)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text exposition here on exit")
	flag.Parse()

	// SIGINT cancels the run: pool-backed sweeps stop dispatching and
	// drain, remaining experiments are skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	var rec *telemetry.Recorder
	var reg *telemetry.Registry
	if *tel != "" || *metricsOut != "" {
		reg = telemetry.NewRegistry()
		var sinks []telemetry.Sink
		switch *tel {
		case "":
		case "text":
			sinks = append(sinks, telemetry.NewTextSink(os.Stderr))
		case "jsonl":
			sinks = append(sinks, telemetry.NewJSONLSink(os.Stderr))
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown -telemetry format %q (want text or jsonl)\n", *tel)
			os.Exit(2)
		}
		rec = telemetry.New(reg, sinks...)
	}

	names := experiments.Names()
	if *run != "all" {
		names = strings.Split(*run, ",")
	}
	for i, name := range names {
		t, err := experiments.Run(ctx, strings.TrimSpace(name), *workers, rec)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "experiments: interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		if *md {
			fmt.Print(t.Markdown())
		} else {
			fmt.Print(t.String())
		}
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = reg.Snapshot().WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}
