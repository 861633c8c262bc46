package cool_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// waitNoLeak polls until the process goroutine count settles back to
// (near) the pre-run baseline. Goroutines may exit asynchronously
// after Run returns, so one immediate sample would
// flake; two seconds without settling means a real leak.
func waitNoLeak(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		// A small allowance absorbs unrelated runtime goroutines
		// (finalizers, timer wheels) that come and go under test.
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines alive 2s after Run (baseline %d):\n%s",
				label, runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNativeRunLeavesNoGoroutines runs every native Run ending — clean
// finish, deadline stop of running and of blocked tasks, task panic —
// and asserts no worker or deadline-timer goroutine outlives the call.
func TestNativeRunLeavesNoGoroutines(t *testing.T) {
	scenarios := []struct {
		name    string
		cfg     func() cool.Config
		run     func(*cool.Ctx)
		wantErr func(error) bool
	}{
		{
			name: "clean",
			cfg:  func() cool.Config { return cool.Config{} },
			run: func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					for i := 0; i < 64; i++ {
						ctx.Spawn("t", func(*cool.Ctx) {})
					}
				})
			},
			wantErr: func(err error) bool { return err == nil },
		},
		{
			name: "deadline",
			cfg:  func() cool.Config { return cool.Config{Deadline: 300_000} },
			run: func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					for i := 0; i < 4; i++ {
						ctx.Spawn("slow", func(*cool.Ctx) {
							time.Sleep(5 * time.Millisecond)
						})
					}
				})
			},
			wantErr: func(err error) bool {
				var de *cool.DeadlineExceededError
				return errors.As(err, &de)
			},
		},
		{
			name: "panic",
			cfg:  func() cool.Config { return cool.Config{} },
			run: func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					ctx.Spawn("boom", func(*cool.Ctx) { panic("kaboom") })
				})
			},
			wantErr: func(err error) bool {
				var tp *cool.TaskPanicError
				return errors.As(err, &tp)
			},
		},
		{
			// The deadline unwinds a task blocked on a condition that is
			// never signalled, and the root's WaitFor helping loop.
			name: "deadline-blocked",
			cfg:  func() cool.Config { return cool.Config{Deadline: 2_000_000} },
			run: func(ctx *cool.Ctx) {
				m, cv := ctx.Runtime().NewMonitor(0), new(cool.Cond)
				ctx.WaitFor(func() {
					ctx.Spawn("waiter", func(c *cool.Ctx) {
						c.Lock(m)
						c.Wait(cv, m)
						c.Unlock(m)
					})
				})
			},
			wantErr: func(err error) bool {
				var de *cool.DeadlineExceededError
				return errors.As(err, &de)
			},
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := sc.cfg()
			cfg.Processors = 4
			cfg.Backend = cool.BackendNative
			rt, err := cool.NewRuntime(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Run(sc.run)
			if !sc.wantErr(err) {
				t.Fatalf("Run = %v (%T), unexpected outcome for scenario %q", err, err, sc.name)
			}
			waitNoLeak(t, fmt.Sprintf("scenario %q (err=%v)", sc.name, err), base)
		})
	}
}
