// Command coolbenchmark is the repository's benchmark: four closed-loop
// workloads over different slices of the system, seven end-to-end
// metrics on each, per-layer probes and a traced pass. It runs in one
// process and leaves nothing behind. See README.md.
//
//	bash benchmark/run.sh                                  all workloads, untraced
//	bash benchmark/run.sh --workload native-fine --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --trace 1                        traced pass and probes
//	bash benchmark/run.sh --selfcheck                      the untraced suite twice, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("coolbenchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated job sequences")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload measures")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke test: one tiny block per workload")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice and compare the two against the bounds")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	outDir := fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		out, err := json.MarshalIndent(newManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	run := workloads
	if *workloadName != "all" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "coolbenchmark: no workload %q\n", *workloadName)
			return 2
		}
		run = []workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: *outDir}
	fmt.Printf("# coolbenchmark %s %s/%s num_cpu=%d gomaxprocs=%d gogc=%s P=%d seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		envOr("GOGC", "default"), min(runtime.GOMAXPROCS(0), 4), o.seed, o.seconds, *trace)

	if *selfcheck {
		return selfCheck(run, o)
	}
	code := 0
	for _, w := range run {
		res, err := measure(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coolbenchmark: %s: %v\n", w.name, err)
			return 1
		}
		report(res, o)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

func envOr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

// measure runs one workload under its hard deadline. Past the deadline
// clients stop issuing and the run tears down and fails; if teardown
// itself hangs on a stuck job, the process exits, which leaves nothing
// behind either since everything lives in this process.
func measure(w workload, o options) (result, error) {
	deadline := time.Duration(3*o.seconds+45) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	stuck := time.AfterFunc(deadline+15*time.Second, func() {
		fmt.Fprintf(os.Stderr, "coolbenchmark: %s: teardown did not finish after the %v deadline\n", w.name, deadline)
		os.Exit(3)
	})
	defer stuck.Stop()
	res, err := runWorkload(ctx, w, o)
	if err == nil {
		res.metrics["harness.num_cpu"] = float64(runtime.NumCPU())
		res.metrics["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	}
	return res, err
}

// declared are the metrics a run reports in its result line.
func declared(trace bool) []metric {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// report prints every metric by name with its unit, the job counts,
// and as the last line the result object the driver reads.
func report(res result, o options) {
	fmt.Printf("%-20s jobs attempted=%d succeeded=%d failed=%d blocks=%g latency_samples=%g\n", res.workload,
		res.attempted, res.attempted-res.failed, res.failed, res.metrics["harness.blocks"], res.metrics["harness.latency_samples"])
	if res.firstErr != nil {
		fmt.Printf("%-20s first failure: %v\n", res.workload, res.firstErr)
	}
	for _, b := range res.broken {
		fmt.Printf("%-20s invariant broken: %s\n", res.workload, b)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value)
	units := make(map[string]string)
	for _, m := range declared(o.trace) {
		values[m.Name] = value{res.metrics[m.Name], m.Unit}
	}
	for _, m := range append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-20s %-34s %16.6f %s\n", res.workload, name, res.metrics[name], units[name])
	}
	if o.trace {
		spans := make([]string, 0, len(res.selfNS))
		for name := range res.selfNS {
			spans = append(spans, name)
		}
		sort.Strings(spans)
		for _, name := range spans {
			fmt.Printf("%-20s self time %-24s %14.3f ms\n", res.workload, name, float64(res.selfNS[name])/1e6)
		}
		fmt.Printf("%-20s spans written to %s\n", res.workload, res.spans)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, values})
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Println(string(line))
}

// selfCheck runs the untraced suite twice in this one process and
// reports, per workload and end-to-end metric, how much worse the
// second run was than the first against the metric's bound.
func selfCheck(run []workload, o options) int {
	o.trace = false
	var sets [2][]result
	for i := range sets {
		for _, w := range run {
			res, err := measure(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "coolbenchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.correct() {
				report(res, o)
				return 1
			}
			sets[i] = append(sets[i], res)
		}
	}
	code := 0
	fmt.Printf("%-20s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, w := range run {
		for _, m := range endToEndMetrics {
			a, b := sets[0][i].metrics[m.Name], sets[1][i].metrics[m.Name]
			worse := ratio(b-a, a)
			if m.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Printf("%-20s %-18s %14.6f %14.6f %+8.2f%% %6.0f%% %s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
