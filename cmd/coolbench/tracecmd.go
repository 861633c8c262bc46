// The -trace mode runs one application cell (app, variant, processors,
// size, backend) and prints its cycles and Verify line; on the simulator
// it also runs the serial reference and prints the speedup over it.
// With -trace-out it records scheduler events and writes them as a
// Chrome trace_event JSON file (load it at chrome://tracing or
// https://ui.perfetto.dev): one track per processor, task-execution
// slices, and instants for spawns, steals and faults. Timestamps, like
// the printed cycles, are simulated cycles on the simulator backend and
// wall-clock nanoseconds on the native backend; the trace maps both to
// viewer microseconds.
//
//	coolbench -trace -trace-app pancho -trace-variant Distr+Aff -trace-procs 16
//	coolbench -trace -trace-out ocean.json
//	coolbench -trace -trace-out g.json -trace-app gauss -trace-backend native
package main

import (
	"flag"
	"fmt"
	"os"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

func traceMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -trace", flag.ExitOnError)
	_ = fs.Bool("trace", true, "trace-export mode (this flag)")
	out := fs.String("trace-out", "", "output file for the Chrome trace_event JSON (default: record no trace)")
	appName := fs.String("trace-app", "ocean", "application to trace")
	variant := fs.String("trace-variant", "", "program variant (default: the app's most optimised)")
	procsN := fs.Int("trace-procs", 8, "processor count")
	size := fs.Int("trace-size", 0, "workload size override (0 = app default)")
	backendName := fs.String("trace-backend", "sim", "execution backend: sim or native")
	capacity := fs.Int("trace-cap", 1<<20, "maximum recorded scheduler events")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	app, ok := apps.Lookup(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "coolbench -trace: unknown app %q (have %v)\n", *appName, apps.Names())
		return 2
	}
	v := *variant
	if v == "" {
		v = app.Variants[len(app.Variants)-1]
	}
	cfg := cool.Config{Processors: *procsN}
	if *out != "" {
		cfg.TraceCapacity = *capacity
	}
	switch *backendName {
	case "sim":
	case "native":
		cfg.Backend = cool.BackendNative
	default:
		fmt.Fprintf(os.Stderr, "coolbench -trace: unknown backend %q (sim, native)\n", *backendName)
		return 2
	}
	// The registry's uniform interface hides the Runtime; recover it via
	// the construction hook so the trace can be exported after the run.
	var rt *cool.Runtime
	restore := cool.CaptureRuntime(func(r *cool.Runtime) { rt = r })
	res, err := app.RunCfg(cfg, v, *size)
	restore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench -trace: %v\n", err)
		return 1
	}
	cell := fmt.Sprintf("%s/%s P=%d backend=%s", app.Name, v, *procsN, *backendName)
	if cfg.Backend == cool.BackendNative {
		fmt.Printf("%s: %d ns\n", cell, res.Cycles)
	} else {
		ser, err := app.RunSerial(*size)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coolbench -trace: serial reference: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %d cycles, speedup %.2f over serial (%d cycles)\n",
			cell, res.Cycles, float64(ser.Cycles)/float64(res.Cycles), ser.Cycles)
	}
	fmt.Printf("verify: %s\n", res.Verify)
	if *out == "" {
		return 0
	}
	if rt == nil {
		fmt.Fprintf(os.Stderr, "coolbench -trace: %s constructed no runtime\n", app.Name)
		return 1
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench -trace: %v\n", err)
		return 1
	}
	werr := rt.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "coolbench -trace: %v\n", werr)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return 0
}
