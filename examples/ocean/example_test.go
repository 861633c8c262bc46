package main

// Example runs the program and pins what it prints: every figure is a
// deterministic simulated count, so any change to one is a change to the
// simulator or the runtime.
func Example() {
	main()
	// Output:
	// base:                   346118 cycles, miss rate 0.1587, 18.6% local
	// distribute+affinity:    191744 cycles, miss rate 0.1587, 74.2% local
	// improvement: 1.81x
}
