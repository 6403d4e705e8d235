package main

// Example runs the powercap walk.
func Example() {
	run()
	// Output:
	// Part 1: power capping hits writes, not reads (Fig. 4)
	// ps   seq write              seq read
	// ps0     3399 MB/s @ 14.82 W    3399 MB/s @  8.26 W   (write 100%, read 100% of ps0)
	// ps1     2535 MB/s @ 11.67 W    3399 MB/s @  8.26 W   (write  75%, read 100% of ps0)
	// ps2     1796 MB/s @  9.38 W    3399 MB/s @  8.26 W   (write  53%, read 100% of ps0)
	//
	// Part 2: asymmetric IO — one uncapped writer, two capped readers
	// mixed stream: 750 MiB in 116ms (6792 MB/s) across 3 devices
	// peak ensemble power: 32.9 W (vs ~45 W for three uncapped devices at full write load)
	// readers capped at ps2 (10 W each); writer w uncapped
}
