package locusroute

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	cool "github.com/coolrts/cool"
)

// rebuiltResult is the check Finish made before it verified in place,
// kept as its oracle: a second, zeroed grid with every routed wire's
// legs laid on it, compared with the CostArray cell by cell.
func rebuiltResult(ap *app) Result {
	rebuilt := make([]int64, len(ap.cost.Data))
	for i := range ap.wires {
		w := &ap.wires[i]
		if !w.routed {
			continue
		}
		for _, l := range ap.legs(w, w.horizFirst) {
			for k := range l.count {
				rebuilt[l.start+k*l.stride+l.dir]++
			}
		}
	}
	consistent := true
	for i := range rebuilt {
		if rebuilt[i] != ap.cost.Data[i] {
			consistent = false
			break
		}
	}
	var total int64
	for i := 0; i < len(ap.cost.Data); i += 2 {
		h, v := ap.cost.Data[i], ap.cost.Data[i+1]
		total += h*h + v*v
	}
	return Result{TotalCost: total, Wires: len(ap.wires), Consistent: consistent}
}

// gridHash is the FNV-64a hash of the CostArray.
func gridHash(ap *app) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ap.cost.Data {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// routed runs the served variant of a catalog preset on a new runtime
// and returns the finished instance.
func routed(t *testing.T, backend cool.Backend, procs int, size string) *app {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Program.Sized(Program.Sizes[size]).Build(rt, Program.Served, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(inst.Main); err != nil {
		t.Fatal(err)
	}
	return inst.(*app)
}

// TestFinishInPlaceMatchesRebuilt checks Finish's in-place check
// against the rebuilt grid on both backends at P=1 and P=2 and at the
// smoke, small and large presets: on the grid as the run left it, on
// copies with one cell off by ±1 at seeded cells, and with one wire's
// routed flag flipped. Finish's Result must equal the oracle's, and the
// grid must hash the same before and after Finish.
func TestFinishInPlaceMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		for _, procs := range []int{1, 2} {
			for _, size := range []string{"smoke", "small", "large"} {
				name := fmt.Sprintf("%v P=%d %s", backend, procs, size)
				ap := routed(t, backend, procs, size)
				check := func(label string, wantConsistent bool) {
					t.Helper()
					before := gridHash(ap)
					want := rebuiltResult(ap)
					ev, err := ap.Finish()
					if err != nil {
						t.Fatalf("%s, %s: %v", name, label, err)
					}
					if got := ev.(Result); got != want {
						t.Errorf("%s, %s: Finish %+v, rebuilt grid %+v", name, label, got, want)
					}
					if want.Consistent != wantConsistent {
						t.Errorf("%s, %s: the rebuilt grid reads consistent=%v", name, label, want.Consistent)
					}
					if after := gridHash(ap); after != before {
						t.Errorf("%s, %s: Finish left the grid hashing %#x, was %#x", name, label, after, before)
					}
				}
				check("as run", true)
				for range 8 {
					i := rng.Intn(len(ap.cost.Data))
					d := int64(1 - 2*rng.Intn(2))
					ap.cost.Data[i] += d
					check(fmt.Sprintf("cell %d off by %+d", i, d), false)
					ap.cost.Data[i] -= d
				}
				w := &ap.wires[rng.Intn(len(ap.wires))]
				w.routed = !w.routed
				check("one wire's routed flag flipped", false)
				w.routed = !w.routed
				check("restored", true)
			}
		}
	}
}
