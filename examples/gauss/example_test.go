package main

// Example runs the program and pins what it prints: every figure is a
// deterministic simulated count, so any change to one is a change to the
// simulator or the runtime.
func Example() {
	main()
	// Output:
	// round-robin, no hints:         5723641 cycles
	// TASK(src) + OBJECT(dst):       2894051 cycles
	// affinity speedup: 1.98x on 16 processors
}
