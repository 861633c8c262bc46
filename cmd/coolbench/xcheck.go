// The -xcheck mode is the differential harness (internal/xcheck): every
// registered application runs as a simulator reference and then by
// every arm — a second simulated schedule, the native backend plain and
// armed, seeded fault plans, and Reset runtimes — and each arm must
// agree with its reference. A failing arm prints the line that replays
// it; a failing fault plan first shrinks to a minimal one.
//
//	coolbench -xcheck                             full matrix, P=1,2,4,8,16, 50 seeds
//	coolbench -xcheck -xcheck-procs 1,2,4         subset of machine sizes
//	coolbench -xcheck -xcheck-apps gauss,ocean    subset of apps
//	coolbench -xcheck -xcheck-seed 17 -xcheck-campaigns 1
//	                                              one seed of the fault and Reset arms
//	coolbench -xcheck -xcheck-small               smoke workloads, 50 plain native runs per cell (CI)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/coolrts/cool/internal/xcheck"
)

func xcheckMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -xcheck", flag.ExitOnError)
	_ = fs.Bool("xcheck", true, "differential harness mode (this flag)")
	procsFlag := fs.String("xcheck-procs", "1,2,4,8,16", "comma-separated processor counts")
	appsFlag := fs.String("xcheck-apps", "", "comma-separated app subset (default: all registered)")
	small := fs.Bool("xcheck-small", false, "use smoke workload sizes and run the plain native arm 50 times per cell (CI smoke)")
	seed := fs.Int64("xcheck-seed", 1, "first seed of the fault-plan and Reset arms")
	campaigns := fs.Int("xcheck-campaigns", 50, "seeds of the fault-plan and Reset arms: a plan on every last-variant cell and a Reset draw each")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := xcheck.Options{Small: *small, Seed: *seed, Campaigns: *campaigns, Out: os.Stdout}
	if *small {
		// Small cells are cheap, so the CI smoke spends its time on many
		// native interleavings per cell instead.
		opts.NativeRuns = 50
	}
	for _, f := range strings.Split(*procsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "coolbench -xcheck: bad -xcheck-procs entry %q\n", f)
			return 2
		}
		opts.Procs = append(opts.Procs, n)
	}
	if *appsFlag != "" {
		for _, n := range strings.Split(*appsFlag, ",") {
			opts.Apps = append(opts.Apps, strings.TrimSpace(n))
		}
	}
	if err := xcheck.Run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "coolbench -xcheck: %v\n", err)
		if errors.Is(err, xcheck.ErrUnknownApp) {
			return 2
		}
		return 1
	}
	fmt.Println("xcheck: all cells agree")
	return 0
}
