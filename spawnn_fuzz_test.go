package cool_test

import (
	"sync/atomic"
	"testing"

	cool "github.com/coolrts/cool"
)

// FuzzSpawnNOpts drives SpawnN's option buffers on both backends: each
// member names 0 to 4 OBJECT operands, so a spawn's options stay in the
// two inline slots or spill to the heap slice, and the options callback
// refills one shared buffer for every member. Stealing is off, so each
// member must run exactly once, on the processor its own operands pick:
// the home of the object whose server holds the most named bytes (the
// first such object on a tie), or the processor it was pinned to when it
// names none.
//
// The input is read a byte at a time: the member count, then per member
// its operand count and, per operand, an object and a size class.
func FuzzSpawnNOpts(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 2, 0, 2, 0, 1, 5, 2})
	f.Add([]byte{7, 4, 0, 1, 1, 2, 2, 3, 3, 0, 3, 4, 1, 5, 0, 6, 2})
	const procs, objects = 4, 8
	rts := make([]*cool.Runtime, len(spawnNArms))
	for i, arm := range spawnNArms {
		rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: arm.b, Sched: cool.SchedPolicy{NoStealing: true}})
		if err != nil {
			f.Fatal(err)
		}
		rts[i] = rt
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		type operand struct{ obj, size int }
		members := make([][]operand, 1+next()%32)
		for i := range members {
			for range next() % 5 {
				members[i] = append(members[i], operand{next() % objects, next() % 4 * 64})
			}
		}
		for a, rt := range rts {
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
			objs := make([]cool.Obj, objects)
			for j := range objs {
				objs[j] = rt.NewObjPages(256, j*3%procs)
			}
			// want is member i's processor, by the rule the runtime
			// documents for several operands (ObjectAffinitySized).
			want := make([]int, len(members))
			for i, ops := range members {
				if len(ops) == 0 {
					want[i] = i % procs
					continue
				}
				best, bestBytes := 0, -1
				for j, op := range ops {
					bytes := 0
					for _, o := range ops {
						if rt.Home(objs[o.obj].Base) == rt.Home(objs[op.obj].Base) {
							bytes += max(o.size, 1)
						}
					}
					if bytes > bestBytes {
						best, bestBytes = j, bytes
					}
				}
				want[i] = rt.Home(objs[ops[best].obj].Base)
			}
			ran := make([]atomic.Int32, len(members))
			ranOn := make([]atomic.Int32, len(members))
			buf := make([]cool.SpawnOpt, 0, 4)
			err := rt.Run(func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					ctx.SpawnN("member", len(members), func(c *cool.Ctx, i int) {
						ran[i].Add(1)
						ranOn[i].Store(int32(c.ProcID()))
					}, func(i int) []cool.SpawnOpt {
						buf = buf[:0]
						if len(members[i]) == 0 {
							return append(buf, cool.OnProcessor(i%procs))
						}
						for _, op := range members[i] {
							if op.size == 0 {
								buf = append(buf, cool.ObjectAffinity(objs[op.obj].Base))
							} else {
								buf = append(buf, cool.ObjectAffinitySized(objs[op.obj].Base, int64(op.size)))
							}
						}
						return buf
					})
				})
			})
			if err != nil {
				t.Fatalf("%s: %v", spawnNArms[a].name, err)
			}
			for i := range members {
				if n := ran[i].Load(); n != 1 {
					t.Errorf("%s: member %d ran %d times", spawnNArms[a].name, i, n)
				}
				if got := int(ranOn[i].Load()); got != want[i] {
					t.Errorf("%s: member %d (operands %v) ran on processor %d, want %d", spawnNArms[a].name, i, members[i], got, want[i])
				}
			}
		}
	})
}
