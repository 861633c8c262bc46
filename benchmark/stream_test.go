package main

import (
	"reflect"
	"sort"
	"testing"
)

func sortedKinds(jobs []job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.kind() + "/" + j.Key
	}
	sort.Strings(out)
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		mix := w.mix(false)
		a, b, other := newStream(mix, 7), newStream(mix, 7), newStream(mix, 8)
		differs := false
		for range 3 {
			ba, bb, bo := a.block(), b.block(), other.block()
			if !reflect.DeepEqual(ba, bb) {
				t.Fatalf("%s: the same seed gave two different sequences", w.name)
			}
			if !reflect.DeepEqual(ba, bo) {
				differs = true
			}
			// Every block is the same multiset, whatever the seed: equal work.
			if want := sortedKinds(expand(mix)); !reflect.DeepEqual(sortedKinds(ba), want) || !reflect.DeepEqual(sortedKinds(bo), want) {
				t.Fatalf("%s: a block is not the workload's multiset", w.name)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
	}
}

func TestDistinctKeepsFirstTouchOrder(t *testing.T) {
	a, b := job{App: "gauss", Size: "small"}, job{App: "pancho", Size: "small", Key: "tenant1"}
	got := distinct([]mixEntry{{a, 3}, {b, 2}, {a, 1}})
	if !reflect.DeepEqual(got, []job{a, b}) {
		t.Errorf("distinct = %v, want [%v %v]", got, a, b)
	}
}
