package sim

import "testing"

func TestNegativeChargePanics(t *testing.T) {
	e, d := newTestEngine(t, 1)
	d.add(e.NewTask("bad", 0, func(c *Ctx) {
		c.Charge(-1)
	}))
	if err := e.Run(); err == nil {
		t.Fatal("negative charge not reported")
	}
}

func TestEngineRequiresDispatcher(t *testing.T) {
	e := New(1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("Run without dispatcher did not panic")
		}
	}()
	_ = e.Run()
}

func TestEngineRunsOnce(t *testing.T) {
	e, d := newTestEngine(t, 1)
	d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(1) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_ = e.Run()
}

func TestBadConstructorArgsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"zero procs":   func() { New(0, 100) },
		"zero quantum": func() { New(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNotifyBusyProcIsNoOp(t *testing.T) {
	e, d := newTestEngine(t, 1)
	d.add(e.NewTask("long", 0, func(c *Ctx) {
		// While running, spurious notifies must not disturb us.
		e.NotifyProc(e.Procs[0], c.Now())
		e.NotifyWork(c.Now())
		c.Charge(100)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Procs[0].Tasks != 1 {
		t.Fatalf("tasks = %d", e.Procs[0].Tasks)
	}
}

func TestEarlierWakeSupersedesLater(t *testing.T) {
	// A proc parked with a far-future dispatch must wake earlier when
	// earlier work arrives (the epoch-superseding path).
	e, d := newTestEngine(t, 2)
	var start int64 = -1
	d.add(e.NewTask("spawner", 0, func(c *Ctx) {
		c.Charge(10)
		// First notify proc 1 for t=5000 (far future), then enqueue real
		// work now: the earlier wake must win.
		e.queueDispatch(e.Procs[1], 5000)
		d.add(e.NewTask("work", c.Now(), func(c2 *Ctx) {
			start = c2.Now()
			c2.Charge(1)
		}))
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start < 0 || start >= 5000 {
		t.Fatalf("work started at %d; earlier wake did not supersede", start)
	}
}
