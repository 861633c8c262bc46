// The -xcheck mode is the backend differential harness: every
// registered application runs on both the simulator and the native
// goroutine backend at a range of machine sizes, and the results must
// agree (see internal/xcheck for the exact comparison contract).
//
//	coolbench -xcheck                             full matrix, P=1,2,4,8,16
//	coolbench -xcheck -xcheck-procs 1,2,4         subset of machine sizes
//	coolbench -xcheck -xcheck-apps gauss,ocean    subset of apps
//	coolbench -xcheck -xcheck-small               reduced workloads, 50 plain native runs per cell (CI)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/coolrts/cool/internal/xcheck"
)

func xcheckMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -xcheck", flag.ExitOnError)
	_ = fs.Bool("xcheck", true, "backend differential mode (this flag)")
	procsFlag := fs.String("xcheck-procs", "1,2,4,8,16", "comma-separated processor counts")
	appsFlag := fs.String("xcheck-apps", "", "comma-separated app subset (default: all registered)")
	small := fs.Bool("xcheck-small", false, "use reduced workload sizes and run the plain native arm 50 times per cell (CI smoke)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := xcheck.Options{Small: *small, Out: os.Stdout}
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
		return 1
	}
	fmt.Println("xcheck: all cells agree")
	return 0
}
