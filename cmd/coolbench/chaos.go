// The -chaos mode is the self-checking chaos-campaign driver: seeded
// random fault plans run against every registered application, each run
// differentially checked against a fault-free reference (numeric
// results token for token, plus total tasks run — no lost or duplicated
// work). A failing campaign is automatically shrunk to a minimal
// reproducing fault plan and printed as copy-pasteable builder calls.
//
//	coolbench -chaos                              50 campaigns per app
//	coolbench -chaos -chaos-campaigns 8           quicker sweep
//	coolbench -chaos -chaos-apps gauss,ocean      subset of apps
//	coolbench -chaos -chaos-seed 17 -chaos-campaigns 1
//	                                              replay one campaign
//	coolbench -chaos -chaos-small                 reduced workloads (CI)
//	coolbench -chaos -chaos-native                campaigns on the native
//	                                              (goroutine) backend
//	coolbench -chaos -chaos-native -chaos-churn   add elastic pool churn
//	                                              (AddWorker/Drain events)
//	coolbench -chaos -chaos-adapt                 adaptive affinity controller
//	                                              armed on every faulted run
//	                                              (simulator only)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/chaos"
)

func chaosMain(args []string) int {
	fs := flag.NewFlagSet("coolbench -chaos", flag.ExitOnError)
	_ = fs.Bool("chaos", true, "chaos-campaign mode (this flag)")
	campaigns := fs.Int("chaos-campaigns", 50, "seeded campaigns per application")
	baseSeed := fs.Int64("chaos-seed", 1, "seed of the first campaign (campaign i uses seed+i)")
	procs := fs.Int("chaos-procs", 8, "simulated processors per campaign")
	appsFlag := fs.String("chaos-apps", "", "comma-separated app subset (default: all registered)")
	small := fs.Bool("chaos-small", false, "use reduced workload sizes (CI smoke)")
	nativeFlag := fs.Bool("chaos-native", false, "run campaigns on the native goroutine backend (plan times read as nanoseconds)")
	churn := fs.Bool("chaos-churn", false, "include elastic pool churn (AddWorker/Drain) in generated plans; requires -chaos-native")
	adapt := fs.Bool("chaos-adapt", false, "arm the adaptive affinity controller on every faulted run (reference stays static); simulator only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	backend := cool.BackendSim
	if *nativeFlag {
		backend = cool.BackendNative
	}
	if *adapt && (*nativeFlag || *churn) {
		fmt.Fprintln(os.Stderr, "coolbench -chaos: -chaos-adapt runs on the simulator only (drop -chaos-native and -chaos-churn)")
		return 2
	}
	if *churn && !*nativeFlag {
		fmt.Fprintln(os.Stderr, "coolbench -chaos: -chaos-churn requires -chaos-native (the simulator has no worker pool)")
		return 2
	}

	names := apps.Names()
	if *appsFlag != "" {
		names = strings.Split(*appsFlag, ",")
	}
	oracle := chaos.NewOracle()
	failures := 0
	for _, name := range names {
		app, ok := apps.Lookup(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "coolbench -chaos: unknown app %q (have %v)\n", name, apps.Names())
			return 2
		}
		size := 0
		if *small {
			size = app.Sizes["smoke"]
		}
		tally := map[chaos.Verdict]int{}
		for i := 0; i < *campaigns; i++ {
			seed := *baseSeed + int64(i)
			var c chaos.Campaign
			if *churn {
				c = chaos.NewChurnCampaign(app, seed, *procs, size)
			} else {
				c = chaos.NewCampaign(app, seed, *procs, size)
				c.Backend = backend
			}
			c.Adapt = *adapt
			out := oracle.Run(app, c)
			tally[out.Verdict]++
			if !out.Verdict.Bad() {
				continue
			}
			failures++
			min, minOut := oracle.Shrink(app, c)
			fmt.Printf("CHAOS FAILURE app=%s seed=%d procs=%d backend=%v verdict=%v\n",
				app.Name, seed, *procs, backend, out.Verdict)
			fmt.Printf("  %s\n", out.Detail)
			fmt.Printf("  minimal plan (%d of %d events, verdict=%v):\n", min.Plan.Len(), c.Plan.Len(), minOut.Verdict)
			for _, line := range strings.Split(min.Plan.BuilderString(), "\n") {
				fmt.Printf("    %s\n", line)
			}
			replayNative := ""
			if backend == cool.BackendNative {
				replayNative = " -chaos-native"
			}
			if *churn {
				replayNative += " -chaos-churn"
			}
			if *adapt {
				replayNative += " -chaos-adapt"
			}
			fmt.Printf("  replay: coolbench -chaos%s -chaos-apps %s -chaos-seed %d -chaos-campaigns 1 -chaos-procs %d\n",
				replayNative, app.Name, seed, *procs)
		}
		fmt.Printf("%-12s %d campaigns (%v): %d ok, %d degraded, %d mismatch, %d leak, %d unexpected\n",
			app.Name, *campaigns, backend, tally[chaos.OK], tally[chaos.Degraded],
			tally[chaos.Mismatch], tally[chaos.Leak], tally[chaos.Unexpected])
	}
	if failures > 0 {
		fmt.Printf("chaos: %d failing campaign(s)\n", failures)
		return 1
	}
	fmt.Println("chaos: all campaigns differentially identical or gracefully degraded")
	return 0
}
