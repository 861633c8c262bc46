package main

// Example runs the program and pins what it prints: every figure is a
// deterministic simulated count, so any change to one is a change to the
// simulator or the runtime.
func Example() {
	main()
	// Output:
	// 99 scheduler events; first 12:
	//   t=0       P-1 enqueue  main
	//   t=40      P0  run      main
	//   t=100     P-1 enqueue  job00
	//   t=160     P-1 enqueue  job01
	//   t=220     P-1 enqueue  job02
	//   t=280     P-1 enqueue  job03
	//   t=340     P-1 enqueue  job04
	//   t=400     P-1 enqueue  job05
	//   t=460     P-1 enqueue  job06
	//   t=520     P-1 enqueue  job07
	//   t=580     P-1 enqueue  job08
	//   t=640     P-1 enqueue  job09
	//
	// 21 tasks were stolen from processor 0's queue
	//
	// utilization timeline (37140 cycles total):
	// P00 |+#+############+###################+##########################+.|
	// P01 |.+######+#############+####################+....................|
	// P02 |.+#######+##############+#####################+.................|
	// P03 |.+########+###############+#####################+...............|
	// P04 |..+########++###############+#######################+...........|
	// P05 |..+##########+################+########################+........|
	// P06 |..+##########++#################+########################+......|
	// P07 |..+###########++##################+#########################+...|
}
