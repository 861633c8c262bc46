package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/coolrts/cool/internal/apps"
)

// scheduleTokens are Verify tokens whose value legitimately depends on
// execution order (the same list internal/xcheck keeps): the router's
// cost depends on the order wires see each other's congestion.
var scheduleTokens = map[string]map[string]bool{
	"locusroute": {"cost": true},
}

// residualTokens are error norms: they move at rounding level with the
// floating-point accumulation order, so they are checked against a
// ceiling and not for equality.
var residualTokens = map[string]bool{"residual": true, "maxdiff": true}

const residualCeiling = 1e-9

// diffVerify compares a job's key=value Verify string to a reference
// token by token and describes the first difference, "" when there is
// none. Tokens are matched by key. With subset set the reference may
// have fewer tokens than the job (a serial reference run reports less
// than a parallel one); without it the two must have the same shape.
func diffVerify(app, want, got string, subset bool) string {
	w, g := strings.Fields(want), strings.Fields(got)
	if !subset && len(w) != len(g) {
		return fmt.Sprintf("verify shape differs: want %q, got %q", want, got)
	}
	gotByKey := make(map[string]string, len(g))
	for _, tok := range g {
		k, v, _ := strings.Cut(tok, "=")
		gotByKey[k] = v
	}
	for _, tok := range w {
		key, wv, _ := strings.Cut(tok, "=")
		gv, ok := gotByKey[key]
		switch {
		case !ok:
			return fmt.Sprintf("%s: missing from %q", key, got)
		case scheduleTokens[app][key]:
		case residualTokens[key]:
			for _, s := range []string{wv, gv} {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil || !(f < residualCeiling) {
					return fmt.Sprintf("%s: %q is not below %g", key, s, residualCeiling)
				}
			}
		case wv != gv:
			return fmt.Sprintf("%s: want %q, got %q", key, wv, gv)
		}
	}
	return ""
}

// checker holds the references every job's output is compared to. The
// serial reference (apps.RunSerial) is computed at set-up. The first
// parallel run of each kind is checked against it by key and then
// pinned, so that the tokens a serial run does not report (panels,
// wires, blocks) are also held equal across every later job.
type checker struct {
	serial       map[string]string // kind -> RunSerial Verify
	serialCycles map[string]int64  // app/size -> RunSerial simulated cycles

	mu       sync.Mutex
	parallel map[string]string // kind -> first checked parallel Verify
}

// newChecker runs the serial reference of every kind in jobs.
func newChecker(jobs []job) (*checker, error) {
	c := &checker{serial: make(map[string]string), serialCycles: make(map[string]int64), parallel: make(map[string]string)}
	bySize := make(map[string]string) // app/size -> Verify; the serial run ignores Procs and Key
	for _, j := range jobs {
		as := j.App + "/" + j.Size
		if _, ok := bySize[as]; !ok {
			r, err := runSerial(j)
			if err != nil {
				return nil, fmt.Errorf("serial reference %s: %w", as, err)
			}
			bySize[as] = r.Verify
			c.serialCycles[as] = r.Cycles
		}
		c.serial[j.kind()] = bySize[as]
	}
	return c, nil
}

// runSerial executes a job kind's single-task serial reference.
func runSerial(j job) (apps.Result, error) {
	a, ok := apps.Lookup(j.App)
	if !ok {
		return apps.Result{}, fmt.Errorf("no app %q", j.App)
	}
	n, err := apps.CatalogSize(j.App, j.Size)
	if err != nil {
		return apps.Result{}, err
	}
	return a.RunSerial(n)
}

// check returns nil when verify is a correct output for j.
func (c *checker) check(j job, verify string) error {
	kind := j.kind()
	want, ok := c.serial[kind]
	if !ok {
		return fmt.Errorf("%s: no reference", kind)
	}
	c.mu.Lock()
	pinned, seen := c.parallel[kind]
	c.mu.Unlock()
	if seen {
		if d := diffVerify(j.App, pinned, verify, false); d != "" {
			return fmt.Errorf("%s: %s", kind, d)
		}
		return nil
	}
	if d := diffVerify(j.App, want, verify, true); d != "" {
		return fmt.Errorf("%s against serial reference: %s", kind, d)
	}
	c.mu.Lock()
	c.parallel[kind] = verify
	c.mu.Unlock()
	return nil
}
