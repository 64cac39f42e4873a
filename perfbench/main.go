// Command perfbench is the repository benchmark. It runs one workload as a
// closed loop with a single client — the next operation starts when the
// previous one returns — for a fixed time, checks every operation's
// output, and prints one JSON result line:
//
//	perfbench --workload protect-c7552 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// operations. With --trace 1 it carries the per-layer metrics: after the
// untraced loop, one more operation runs with spans recorded around the
// calls into each layer (from this package only; the program itself is
// not instrumented), followed by a replay that re-times the layer calls
// one by one and must reproduce the operation's results. The spans are
// written to --spans as JSON lines.
//
// NOTES.md explains the workloads, what each per-layer metric should move,
// and the measured spread the bounds in BENCHMARK.json were set from.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// minOps is the fewest untraced operations a run makes, however short
// --seconds is: the determinism check compares each op's report with the
// first one's, which needs a second op.
const minOps = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 21

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the untraced loop runs")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced op and replay")
	spans := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed)
	}
	cfg := runConfig{
		sizes: fullSizes, seed: *seed, par: runtime.NumCPU(),
		duration: time.Duration(*seconds) * time.Second, trace: *trace == 1, spansPath: *spans,
	}
	res, err := measure(ctx, w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	sizes     sizes
	seed      int64
	par       int // internal parallelism: flow workers and route workers
	duration  time.Duration
	trace     bool
	spansPath string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up setupReps times, runs the untraced closed
// loop, and in trace mode one traced op plus its replay. It returns an
// error, and no result, only when set-up fails or the peak RSS cannot be
// read; a failed op, check or replay is counted in the result.
func measure(ctx context.Context, setup setupFunc, cfg runConfig, log io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = setup(cfg, tr); err != nil {
			return nil, fmt.Errorf("setup: %v", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(log, "perfbench: setups %.6f s\n", setups)

	res := &result{Metrics: map[string]metric{}}
	var first []byte
	// done checks one op's outcome and its report against the first op's.
	done := func(o outcome, err error) {
		res.Attempted++
		if err == nil {
			for _, c := range o.checks() {
				if cerr := c.run(); cerr != nil {
					err = fmt.Errorf("%s: %v", c.name, cerr)
					break
				}
			}
		}
		if err == nil {
			var rep []byte
			if rep, err = o.report(); err == nil {
				if first == nil {
					first = rep
				} else if string(rep) != string(first) {
					err = fmt.Errorf("report differs from the first op's (determinism)")
				}
			}
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "perfbench: op %d failed: %v\n", res.Attempted, err)
		}
	}

	var walls, allocs, peaks []float64
	loopStart := time.Now()
	for len(walls) < minOps || time.Since(loopStart) < cfg.duration {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := freshHeap(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		o, err := w.op(ctx, nil)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		peak, perr := peakRSSMiB()
		if perr != nil {
			return nil, perr
		}
		peaks = append(peaks, peak)
		walls = append(walls, wall)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		fmt.Fprintf(log, "perfbench: op %d: %.4f s, %.1f MiB allocated, %.1f MiB peak RSS\n",
			len(walls), wall, allocs[len(allocs)-1], peaks[len(peaks)-1])
		done(o, err)
	}

	if !cfg.trace {
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["alloc_mib"] = metric{median(allocs), "MiB"}
		res.Metrics["peak_rss_mib"] = metric{median(peaks), "MiB"}
		res.Correct = res.Failed == 0
		return res, nil
	}

	if err := freshHeap(); err != nil {
		return nil, err
	}
	tr.op = 1
	root := tr.begin("op", 0)
	tr.root = root
	o, err := w.op(ctx, tr)
	tr.end(root)
	done(o, err)
	layers := map[string]float64{}
	if err == nil {
		layers, err = w.layerMetrics(ctx, o, tr)
		if err != nil {
			// A replay that disagrees with the op measured a different
			// schedule: publish none of its numbers.
			res.Failed++
			fmt.Fprintf(log, "perfbench: replay: %v\n", err)
			layers = map[string]float64{}
		}
	}
	if err == nil {
		for k, v := range o.quality() {
			layers[k] = v
		}
		traced := tr.seconds("op")
		untraced := median(walls)
		cov, gaps := tr.coverage(root)
		layers["trace.wall_s"] = traced
		layers["trace.untraced_wall_s"] = untraced
		layers["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
		layers["trace.coverage_pct"] = 100 * cov
		for _, g := range gaps[:min(len(gaps), 3)] {
			fmt.Fprintf(log, "perfbench: uncovered %.3fs between %q and %q\n", g.Dur.Seconds(), g.After, g.Before)
		}
		for _, m := range perLayerMetrics {
			// A layer the workload does not exercise reads 0 (NOTES.md).
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	}
	if werr := tr.write(cfg.spansPath); werr != nil {
		fmt.Fprintf(log, "perfbench: writing spans: %v\n", werr)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// freshHeap collects the heap and returns it to the OS, then restarts the
// peak RSS, so that the next op's resident peak is its own and not a
// previous op's garbage.
func freshHeap() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (Linux, since 4.0) at the current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %v", err)
	}
	return nil
}

// peakRSSMiB is the resident-set high-water mark since the last reset.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %v", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kib, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kib, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %v", line, err)
			}
			return v / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
