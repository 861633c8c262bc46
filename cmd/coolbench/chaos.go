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
//
// Campaigns run on the simulator: fault plans are simulator-only.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
	if err := fs.Parse(args); err != nil {
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
			c := chaos.NewCampaign(app, seed, *procs, size)
			out := oracle.Run(app, c)
			tally[out.Verdict]++
			if !out.Verdict.Bad() {
				continue
			}
			failures++
			min, minOut := oracle.Shrink(app, c)
			fmt.Printf("CHAOS FAILURE app=%s seed=%d procs=%d verdict=%v\n",
				app.Name, seed, *procs, out.Verdict)
			fmt.Printf("  %s\n", out.Detail)
			fmt.Printf("  minimal plan (%d of %d events, verdict=%v):\n", min.Plan.Len(), c.Plan.Len(), minOut.Verdict)
			for _, line := range strings.Split(min.Plan.BuilderString(), "\n") {
				fmt.Printf("    %s\n", line)
			}
			fmt.Printf("  replay: coolbench -chaos -chaos-apps %s -chaos-seed %d -chaos-campaigns 1 -chaos-procs %d\n",
				app.Name, seed, *procs)
		}
		fmt.Printf("%-12s %d campaigns: %d ok, %d mismatch, %d leak, %d unexpected\n",
			app.Name, *campaigns, tally[chaos.OK],
			tally[chaos.Mismatch], tally[chaos.Leak], tally[chaos.Unexpected])
	}
	if failures > 0 {
		fmt.Printf("chaos: %d failing campaign(s)\n", failures)
		return 1
	}
	fmt.Println("chaos: all campaigns differentially identical")
	return 0
}
