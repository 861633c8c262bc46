// Command coolbench regenerates every table and figure of the paper's
// evaluation section on the simulated machine:
//
//	F6   Ocean speedup            (coolbench -exp ocean)
//	F10  LocusRoute speedup       (coolbench -exp locus)
//	F11  LocusRoute cache misses  (coolbench -exp locusmiss)
//	F14  Panel Cholesky speedup   (coolbench -exp pancho)
//	F15  Panel Cholesky misses    (coolbench -exp panchomiss)
//	F16a Barnes-Hut speedup       (coolbench -exp barnes)
//	F16b Block Cholesky speedup   (coolbench -exp blockcho)
//	F3   Gauss affinity ablation  (coolbench -exp gauss)
//	T1   affinity hint summary    (coolbench -exp table1)
//	A1   queue-array-size ablation(coolbench -exp queuearray)
//	A2   steal-policy ablation    (coolbench -exp stealpolicy)
//	R1   NUMA vs uniform machine  (coolbench -exp uniform)
//	S1   latency-ratio sweep      (coolbench -exp latency)
//
// -exp all runs everything. Results print as aligned ASCII tables;
// speedups are simulated-cycle ratios against the serial reference, as in
// the paper.
//
// Two further modes have their own flag sets, selected by the first
// argument: -xcheck (the differential harness, xcheck.go) and -trace
// (Chrome trace export, tracecmd.go). Performance is judged by
// `bash benchmark/run.sh`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/stats"
)

var (
	exp       = flag.String("exp", "all", "experiment id (see command doc)")
	procList  = flag.String("procs", "1,2,4,8,16,24,32", "processor counts for speedup figures")
	missProc  = flag.Int("missprocs", 16, "processor count for the cache-miss figures")
	size      = flag.Int("size", 0, "workload size override (0 = per-app default)")
	asCSV     = flag.Bool("csv", false, "emit figure data as CSV (for plotting) instead of tables")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mutexProf = flag.String("mutexprofile", "", "write a mutex-contention profile of the run to this file")
)

// modes are the sub-commands with their own flag sets, selected by the
// prefix of the first argument; anything else is the experiment runner.
var modes = []struct {
	prefix string
	run    func(args []string) int
}{
	{"-xcheck", xcheckMain},
	{"-trace", traceMain},
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches to a mode and returns the process exit code; nothing
// below it calls os.Exit, so deferred cleanup (the profile flush) always
// happens.
func run(args []string) int {
	if len(args) > 0 {
		for _, m := range modes {
			if strings.HasPrefix(args[0], m.prefix) {
				return m.run(args)
			}
		}
	}
	return expMain(args)
}

// expOrder is the -exp all sequence; experiments maps each id to its
// runner.
var expOrder = []string{"table1", "ocean", "locus", "locusmiss", "pancho", "panchomiss", "barnes", "blockcho", "gauss", "queuearray", "stealpolicy", "uniform", "latency", "straggler"}

var experiments = map[string]func() error{
	"ocean":      func() error { return speedupFigure("F6  Ocean speedup (paper §6.1)", "ocean") },
	"locus":      func() error { return speedupFigure("F10 LocusRoute speedup (paper Fig. 10)", "locusroute") },
	"locusmiss":  func() error { return missFigure("F11 LocusRoute cache behaviour (paper Fig. 11)", "locusroute") },
	"pancho":     func() error { return speedupFigure("F14 Panel Cholesky speedup (paper Fig. 14)", "pancho") },
	"panchomiss": func() error { return missFigure("F15 Panel Cholesky cache behaviour (paper Fig. 15)", "pancho") },
	"barnes":     func() error { return speedupFigure("F16a Barnes-Hut speedup (paper Fig. 16)", "barneshut") },
	"blockcho":   func() error { return speedupFigure("F16b Block Cholesky speedup (paper Fig. 16)", "blockcho") },
	"gauss": func() error {
		return speedupFigure("F3  Gaussian elimination affinity ablation (paper Fig. 3)", "gauss")
	},
	"table1":      table1,
	"queuearray":  queueArrayAblation,
	"stealpolicy": stealPolicyAblation,
	"uniform":     uniformMachineComparison,
	"latency":     latencySensitivity,
	"straggler":   stragglerExperiment,
}

// expMain is the experiment runner (-exp). An unknown flag — a retired
// mode's, say — stops in flag parsing with the flag package's "not
// defined" message and exit code 2.
func expMain(args []string) int {
	_ = flag.CommandLine.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse
	names := expOrder
	if *exp != "all" {
		if _, ok := experiments[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "coolbench: unknown experiment %q (have %s, all)\n", *exp, strings.Join(expOrder, ", "))
			return 2
		}
		names = []string{*exp}
	}
	var err error
	if procCounts, err = parseProcs(*procList); err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 2
	}
	stopProfiles, err := startProfiles(*cpuProf, *mutexProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "coolbench: %v\n", err)
		}
	}()
	for _, name := range names {
		if err := experiments[name](); err != nil {
			fmt.Fprintf(os.Stderr, "coolbench %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// procCounts is -procs as parsed by expMain.
var procCounts []int

func parseProcs(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -procs entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// lookup resolves an experiment's application in the registry; every
// run below goes through it, the ablations with their own cool.Config
// (queue-array size, steal policy, machine, fault plan) under the
// matching variant name.
func lookup(name string) (apps.App, error) {
	app, ok := apps.Lookup(name)
	if !ok {
		return app, fmt.Errorf("unknown app %s (have %v)", name, apps.Names())
	}
	return app, nil
}

// speedupFigure reproduces one speedup-vs-processors figure: every
// program variant against the serial reference.
func speedupFigure(title, appName string) error {
	app, err := lookup(appName)
	if err != nil {
		return err
	}
	ser, err := app.RunSerial(*size)
	if err != nil {
		return err
	}
	fig := stats.Figure{Title: title + fmt.Sprintf("   [serial: %d cycles, %s]", ser.Cycles, ser.Verify)}
	ps := procCounts
	for _, variant := range app.Variants {
		s := stats.Series{Name: variant, Procs: ps}
		for _, p := range ps {
			res, err := app.Run(p, variant, *size)
			if err != nil {
				return err
			}
			s.Speedup = append(s.Speedup, float64(ser.Cycles)/float64(res.Cycles))
		}
		fig.Series = append(fig.Series, s)
	}
	if *asCSV {
		header := []string{"app", "variant", "procs", "speedup"}
		var rows [][]string
		for _, s := range fig.Series {
			for i, p := range s.Procs {
				rows = append(rows, []string{appName, s.Name,
					fmt.Sprintf("%d", p), fmt.Sprintf("%.4f", s.Speedup[i])})
			}
		}
		fmt.Print(stats.CSV(header, rows))
		return nil
	}
	fmt.Println(fig)
	return nil
}

// missFigure reproduces one cache-behaviour bar chart: per variant, the
// miss count and where misses were serviced, at a fixed processor count.
func missFigure(title, appName string) error {
	app, err := lookup(appName)
	if err != nil {
		return err
	}
	fmt.Printf("%s   [P=%d]\n", title, *missProc)
	header := []string{"variant", "refs", "misses", "rate", "local", "remote", "dirty", "localFrac", "atHome"}
	var rows [][]string
	for _, variant := range app.Variants {
		res, err := app.Run(*missProc, variant, *size)
		if err != nil {
			return err
		}
		t := res.Report.Total
		rows = append(rows, []string{
			variant,
			fmt.Sprintf("%d", t.Refs),
			fmt.Sprintf("%d", t.Misses()),
			fmt.Sprintf("%.4f", t.MissRate()),
			fmt.Sprintf("%d", t.LocalMisses),
			fmt.Sprintf("%d", t.RemoteMisses),
			fmt.Sprintf("%d", t.DirtyMisses),
			fmt.Sprintf("%.2f", t.LocalFraction()),
			fmt.Sprintf("%.2f", t.HomeFraction()),
		})
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}

// table1 prints the affinity-hint summary (paper Table 1) as implemented
// by this runtime.
func table1() error {
	fmt.Println("T1  Affinity hints (paper Table 1)")
	header := []string{"construct", "Go API", "scheduling effect"}
	rows := [][]string{
		{"default", "Spawn(f, OnObject(base))", "collocate with base object's home; back-to-back by object"},
		{"affinity(obj)", "Spawn(f, OnObject(obj))", "same, for an explicitly named object"},
		{"affinity(obj, TASK)", "Spawn(f, TaskAffinity(obj))", "task-affinity set; back-to-back; placed for load balance; stolen as a set"},
		{"affinity(obj, OBJECT)", "Spawn(f, ObjectAffinity(obj))", "collocate with obj's home memory; stolen reluctantly"},
		{"affinity(n, PROCESSOR)", "Spawn(f, OnProcessor(n))", "direct placement on server n mod P"},
		{"new(proc)", "rt.NewF64(n, proc)", "allocate in proc's cluster memory"},
		{"migrate(obj, proc[, n])", "ctx.Migrate(addr, size, proc)", "re-home the spanned pages"},
		{"home(obj)", "ctx.Home(addr)", "object's home server"},
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}

// queueArrayAblation sweeps the per-server task-affinity queue-array size
// (paper §5: collisions are minimized by a suitably large array).
func queueArrayAblation() error {
	fmt.Println("A1  Task-affinity queue array size (Panel Cholesky, Distr+Aff)")
	pancho, err := lookup("pancho")
	if err != nil {
		return err
	}
	ser, err := pancho.RunSerial(*size)
	if err != nil {
		return err
	}
	header := []string{"queueArraySize", "cycles", "speedup(P=16)"}
	var rows [][]string
	for _, qs := range []int{1, 4, 16, 64, 256} {
		res, err := pancho.RunCfg(cool.Config{Processors: 16, Sched: cool.SchedPolicy{QueueArraySize: qs}}, "Distr+Aff", *size)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", qs),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2f", float64(ser.Cycles)/float64(res.Cycles)),
		})
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}

// uniformMachineComparison (R1) reruns the Gaussian elimination hints on
// a bus-based uniform-memory machine (the SGI setting of Fowler's
// object-affinity work, §7). On NUMA the OBJECT hint pays through both
// cache reuse and local memory; on the uniform machine only the cache
// component remains, so the gap between Base and the hinted versions
// shrinks — quantifying how much of the benefit is NUMA-specific.
func uniformMachineComparison() error {
	fmt.Println("R1  Affinity gains: clustered DASH vs uniform bus machine (Gauss, P=16)")
	gauss, err := lookup("gauss")
	if err != nil {
		return err
	}
	header := []string{"machine", "variant", "cycles", "speedup", "gain over Base"}
	var rows [][]string
	for _, uniform := range []bool{false, true} {
		name := "DASH (clusters)"
		serCfg, cfg := cool.Config{}, cool.Config{Processors: 16}
		if uniform {
			name = "uniform bus"
			bus1, bus16 := machine.UniformBus(1), machine.UniformBus(16)
			serCfg.Machine, cfg.Machine = &bus1, &bus16
		}
		ser, err := gauss.RunCfg(serCfg, apps.Serial, *size)
		if err != nil {
			return err
		}
		var baseCycles int64
		for i, v := range gauss.Variants {
			res, err := gauss.RunCfg(cfg, v, *size)
			if err != nil {
				return err
			}
			if i == 0 {
				baseCycles = res.Cycles // Base
			}
			rows = append(rows, []string{
				name, v,
				fmt.Sprintf("%d", res.Cycles),
				fmt.Sprintf("%.2f", float64(ser.Cycles)/float64(res.Cycles)),
				fmt.Sprintf("%.2fx", float64(baseCycles)/float64(res.Cycles)),
			})
		}
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}

// latencySensitivity (S1) varies the remote-memory latency while holding
// everything else fixed, quantifying §3's claim that "the ratio of the
// latencies of local to remote references" drives the value of locality
// scheduling: the Distr+Aff gain over Base should grow with the ratio.
func latencySensitivity() error {
	fmt.Println("S1  Sensitivity to the remote:local latency ratio (Panel Cholesky, P=16)")
	pancho, err := lookup("pancho")
	if err != nil {
		return err
	}
	header := []string{"remote latency", "ratio", "Base cycles", "Distr+Aff cycles", "affinity gain"}
	var rows [][]string
	for _, remote := range []int64{45, 115, 240, 480} {
		mc := machine.DASH(16)
		mc.Lat.RemoteMem = remote
		mc.Lat.RemoteDirty = remote + 35
		base, err := pancho.RunCfg(cool.Config{Machine: &mc}, "Base", *size)
		if err != nil {
			return err
		}
		aff, err := pancho.RunCfg(cool.Config{Machine: &mc}, "Distr+Aff", *size)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", remote),
			fmt.Sprintf("%.1f", float64(remote)/float64(mc.Lat.LocalMem)),
			fmt.Sprintf("%d", base.Cycles),
			fmt.Sprintf("%d", aff.Cycles),
			fmt.Sprintf("%.2fx", float64(base.Cycles)/float64(aff.Cycles)),
		})
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}

// stragglerExperiment (R2) injects deterministic faults into Panel
// Cholesky at P=16: an 8x straggler processor from the start, and a
// processor that fails outright a quarter of the way through the healthy
// run. A fault-tolerant scheduler keeps the slowdown well under the 16/15
// capacity loss naively extended by queue imbalance: survivors steal the
// straggler's backlog and absorb the failed server's redistributed queue.
func stragglerExperiment() error {
	fmt.Println("R2  Straggler and processor-failure tolerance (Panel Cholesky, P=16)")
	pancho, err := lookup("pancho")
	if err != nil {
		return err
	}
	header := []string{"variant", "fault", "cycles", "slowdown", "steals", "redistributed"}
	var rows [][]string
	for _, v := range []string{"Base", "Distr+Aff", "Distr+Aff+ClusterStealing"} {
		healthy, err := pancho.Run(16, v, *size)
		if err != nil {
			return fmt.Errorf("healthy: %w", err)
		}
		faults := []struct {
			name string
			plan *cool.FaultPlan
		}{
			{"healthy", nil},
			{"P3 8x straggler", cool.NewFaultPlan().SlowProcessor(3, 0, 8, 0)},
			{"P5 fails at 25%", cool.NewFaultPlan().FailProcessor(5, healthy.Cycles/4)},
		}
		for _, f := range faults {
			res, err := pancho.RunCfg(cool.Config{Processors: 16, Faults: f.plan}, v, *size)
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			t := res.Report.Total
			rows = append(rows, []string{
				v, f.name,
				fmt.Sprintf("%d", res.Cycles),
				fmt.Sprintf("%.2fx", float64(res.Cycles)/float64(healthy.Cycles)),
				fmt.Sprintf("%d", t.StealsLocal+t.StealsRemote),
				fmt.Sprintf("%d", t.Redistributed),
			})
		}
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}

// stealPolicyAblation compares the stealing policies discussed in §4.2.
func stealPolicyAblation() error {
	fmt.Println("A2  Steal policy (Panel Cholesky, Distr+Aff, P=16)")
	pancho, err := lookup("pancho")
	if err != nil {
		return err
	}
	ser, err := pancho.RunSerial(*size)
	if err != nil {
		return err
	}
	policies := []struct {
		name string
		pol  cool.SchedPolicy
	}{
		{"default", cool.SchedPolicy{}},
		{"no stealing", cool.SchedPolicy{NoStealing: true}},
		{"no set stealing", cool.SchedPolicy{NoSetStealing: true}},
		{"no object-bound stealing", cool.SchedPolicy{NoObjectBoundStealing: true}},
		{"no cluster-first", cool.SchedPolicy{NoClusterStealFirst: true}},
		{"cluster-only stealing", cool.SchedPolicy{ClusterStealingOnly: true}},
	}
	header := []string{"policy", "cycles", "speedup(P=16)", "steals", "setSteals"}
	var rows [][]string
	for _, pc := range policies {
		res, err := pancho.RunCfg(cool.Config{Processors: 16, Sched: pc.pol}, "Distr+Aff", *size)
		if err != nil {
			return err
		}
		t := res.Report.Total
		rows = append(rows, []string{
			pc.name,
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2f", float64(ser.Cycles)/float64(res.Cycles)),
			fmt.Sprintf("%d", t.StealsLocal+t.StealsRemote),
			fmt.Sprintf("%d", t.SetSteals),
		})
	}
	fmt.Println(stats.Table(header, rows))
	return nil
}
