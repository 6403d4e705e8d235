package main

// Example measures one SSD2 under saturating writes.
func Example() {
	main()
	// Output:
	// device     : SSD2 (Intel D7-P5510)
	// throughput : 3400 MB/s (12969 IOPS)
	// latency    : avg 4.926ms, p99 4.934ms
	// power      : avg 14.81 W, swing 14.51-17.05 W over 1263 samples
	// energy     : 4.36 nJ per byte written
}
