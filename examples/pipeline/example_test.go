package main

// Example runs the program and pins what it prints: every figure is a
// deterministic simulated count, so any change to one is a change to the
// simulator or the runtime.
func Example() {
	main()
	// Output:
	// consumed 400/400 items exactly once
	// simulated time 244342 cycles, utilization 26%, 1021 blocking acquisitions
}
