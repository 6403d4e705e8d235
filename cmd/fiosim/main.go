// Command fiosim is the fio-shaped front end to the simulated testbed:
// it runs one workload against one calibrated device model and reports
// throughput, IOPS, latency percentiles, and — unlike fio — the
// device's power, measured through the simulated shunt/ADC rig.
//
// Usage mirrors the fio options the paper sweeps:
//
//	fiosim -device SSD2 -rw randwrite -bs 256k -iodepth 64 -runtime 60s -size 4g
//	fiosim -device SSD2 -rw write -bs 2m -iodepth 64 -ps 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one fiosim invocation, printing the report to out and
// any error to errw: exit code 0 on success, 1 for a job the flags
// describe but the device cannot run, 2 for a malformed command line.
func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("fiosim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		devName = fs.String("device", "SSD2", "device model: "+strings.Join(catalog.Names(), ", "))
		rw      = fs.String("rw", "randwrite", "read, write, randread, or randwrite")
		bs      = fs.String("bs", "256k", "block size (e.g. 4k, 256k, 2m)")
		depth   = fs.Int("iodepth", 64, "IO queue depth")
		runtime = fs.Duration("runtime", time.Minute, "maximum issue window")
		size    = fs.String("size", "4g", "maximum bytes issued")
		ps      = fs.Int("ps", 0, "NVMe power state to select before the run")
		seed    = fs.Uint64("seed", 42, "random seed")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(errw, "fiosim: "+format+"\n", args...)
		return 1
	}

	job := workload.Job{Depth: *depth, Runtime: *runtime}
	switch *rw {
	case "read":
		job.Op, job.Pattern = device.OpRead, workload.Seq
	case "write":
		job.Op, job.Pattern = device.OpWrite, workload.Seq
	case "randread":
		job.Op, job.Pattern = device.OpRead, workload.Rand
	case "randwrite":
		job.Op, job.Pattern = device.OpWrite, workload.Rand
	default:
		return fail("unknown -rw %q", *rw)
	}
	var err error
	if job.BS, err = parseSize(*bs); err != nil {
		return fail("bad -bs: %v", err)
	}
	if job.TotalBytes, err = parseSize(*size); err != nil {
		return fail("bad -size: %v", err)
	}

	eng := sim.NewEngine()
	rng := sim.NewRNG(*seed)
	dev, ok := catalog.NewNamed(*devName, *devName, eng, rng)
	if !ok {
		return fail("unknown device %q (have %s)", *devName, strings.Join(catalog.Names(), ", "))
	}
	if err := job.Validate(dev); err != nil {
		return fail("%v", err)
	}
	if stage := catalog.StagedBytes(*devName, job.Op); stage > 0 && job.BS > stage {
		return fail("block size %d exceeds the %d bytes %s stages per request", job.BS, stage, *devName)
	}
	if *ps != 0 {
		if err := dev.SetPowerState(*ps); err != nil {
			return fail("set power state: %v", err)
		}
	}
	rig := measure.NewRig(eng, rng, dev)
	rig.Start()
	res := workload.Run(eng, dev, job, rng)
	rig.Stop()

	fmt.Fprintf(out, "%s: (g=0): rw=%s, bs=%s, iodepth=%d, ps=%d\n", *devName, *rw, *bs, *depth, *ps)
	fmt.Fprintf(out, "  %s model: %s (%s)\n", dev.Protocol(), dev.Model(), *devName)
	fmt.Fprintf(out, "  io=%s, bw=%.1fMB/s, iops=%.0f, runt=%v\n",
		fmtBytes(res.Bytes), res.BandwidthMBps, res.IOPS, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  lat (usec): avg=%.1f, p50=%.1f, p99=%.1f, max=%.1f\n",
		us(res.LatAvg), us(res.LatP50), us(res.LatP99), us(res.LatMax))
	sum := rig.Trace().Summary()
	fmt.Fprintf(out, "  power (W): avg=%.2f, min=%.2f, p99=%.2f, max=%.2f over %d samples at 1kHz\n",
		sum.Mean, sum.Min, sum.P99, sum.Max, sum.N)
	fmt.Fprintf(out, "  energy: %.1f J (%.2f nJ/B)\n", dev.EnergyJ(), dev.EnergyJ()/float64(res.Bytes)*1e9)
	return 0
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// parseSize accepts fio-style sizes: 4k, 256K, 2m, 4g, or plain bytes.
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return n * mult, nil
}
