package main

// Example runs the redirection day.
func Example() {
	run()
	// Output:
	// phase   IOPS   active  power(W)  all-awake  saved
	// 0       4000   4       1.454     1.454      0.000 W
	// 1       2500   3       1.255     1.435      0.180 W
	// 2       800    1       0.898     1.438      0.540 W
	// 3       300    1       0.884     1.424      0.540 W
	// 4       800    2       1.060     1.420      0.360 W
	// 5       2500   3       1.273     1.453      0.180 W
	// 6       4000   4       1.448     1.448      0.000 W
	// 7       1200   2       1.059     1.419      0.360 W
	//
	// wake-on-demand events (QoS risk): 0
	// average saving across the day: 0.270 W per rack unit of 4 replicas
}
