package main

// Example runs the program and pins what it prints: every figure is a
// deterministic simulated count, so any change to one is a change to the
// simulator or the runtime.
func Example() {
	main()
	// Output:
	//                            cycles     misses     atHome
	// round-robin:                68611       3238        89%
	// processor affinity:         42852       2371        72%
}
