package fault

import "testing"

func TestInjectorNumbersSpawns(t *testing.T) {
	if NewInjector(new(Plan).Stall(0, 10, 5).Fail(1, 20)) != nil {
		t.Fatal("a plan with no planted panic built an injector")
	}
	var none Injector
	if none.Spawn("w") {
		t.Fatal("a nil injector planted a panic")
	}
	in := NewInjector(new(Plan).PanicTask("w", 2).PanicTask("w", 4))
	for want := 0; want < 6; want++ {
		if panics := in.Spawn("w"); panics != (want == 2 || want == 4) {
			t.Fatalf("spawn %d of w: panics=%v", want, panics)
		}
		if in.Spawn("x") {
			t.Fatalf("spawn %d of x panicked without a planted panic", want)
		}
	}
}
