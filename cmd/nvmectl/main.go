// Command nvmectl is the nvme-cli-shaped control tool for the simulated
// devices: it lists the catalog, dumps Identify Controller power-state
// descriptor tables, and gets/sets the Power Management feature —
// optionally demonstrating a power state's effect with a short
// measured workload.
//
// Usage:
//
//	nvmectl list
//	nvmectl id-ctrl SSD2
//	nvmectl get-feature SSD2
//	nvmectl set-feature SSD2 2
//	nvmectl set-feature SSD2 2 -demo
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/nvme"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minArgs is each subcommand's argument count, its own name included.
var minArgs = map[string]int{"list": 1, "id-ctrl": 2, "get-feature": 2, "set-feature": 3, "apst": 2}

// run executes one nvmectl invocation, printing results to out and any
// error to errw: exit code 0 on success, 1 for a command the device
// refuses, 2 for a malformed command line.
func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nvmectl", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() { usage(errw) }
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if len(args) == 0 || minArgs[args[0]] == 0 || len(args) < minArgs[args[0]] {
		usage(errw)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		list(out)
	case "id-ctrl":
		err = idCtrl(out, args[1])
	case "get-feature":
		err = getFeature(out, args[1])
	case "set-feature":
		ps, perr := strconv.Atoi(args[2])
		if perr != nil {
			err = fmt.Errorf("bad power state %q", args[2])
			break
		}
		demo := len(args) > 3 && args[3] == "-demo"
		err = setFeature(out, args[1], ps, demo)
	case "apst":
		err = apst(out, args[1:])
	}
	if err != nil {
		fmt.Fprintf(errw, "nvmectl: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  nvmectl list                       list simulated devices
  nvmectl id-ctrl <dev>              identify controller (power state table)
  nvmectl get-feature <dev>          read Power Management (FID 0x02)
  nvmectl set-feature <dev> <ps>     write Power Management (FID 0x02)
  nvmectl set-feature <dev> <ps> -demo   ...and measure a short workload
  nvmectl apst <dev> [on|off]        read or write Autonomous Power State Transition (FID 0x0C)`)
}

func newDev(name string) (device.Device, *sim.Engine, *sim.RNG, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(42)
	dev, ok := catalog.NewNamed(name, name, eng, rng)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown device %q; try nvmectl list", name)
	}
	return dev, eng, rng, nil
}

func ctrl(name string) (*nvme.Controller, error) {
	dev, _, _, err := newDev(name)
	if err != nil {
		return nil, err
	}
	return nvme.NewController(dev)
}

func list(out io.Writer) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	fmt.Fprintf(out, "%-6s %-9s %-22s %-12s %s\n", "Node", "Protocol", "Model", "Capacity", "PowerStates")
	for _, name := range catalog.Names() {
		dev, _ := catalog.NewNamed(name, name, eng, rng)
		fmt.Fprintf(out, "%-6s %-9s %-22s %-12s %d\n",
			name, dev.Protocol(), dev.Model(),
			fmt.Sprintf("%.0fGB", float64(dev.CapacityBytes())/1e9), len(dev.PowerStates()))
	}
}

func idCtrl(out io.Writer, name string) error {
	c, err := ctrl(name)
	if err != nil {
		return err
	}
	id := c.Identify()
	fmt.Fprintf(out, "mn      : %s\n", id.ModelNumber)
	fmt.Fprintf(out, "npss    : %d\n", id.NPSS)
	for i, psd := range id.PSD {
		fmt.Fprintf(out, "ps %4d : mp:%.2fW enlat:%dus exlat:%dus\n",
			i, float64(psd.MaxPowerCentiW)/100, psd.EntryLatUs, psd.ExitLatUs)
	}
	return nil
}

func getFeature(out io.Writer, name string) error {
	c, err := ctrl(name)
	if err != nil {
		return err
	}
	ps, err := c.GetPowerState()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "get-feature:0x02 (Power Management), Current value:0x%08x (PS:%d)\n", ps, ps)
	return nil
}

func setFeature(out io.Writer, name string, ps int, demo bool) error {
	dev, eng, rng, err := newDev(name)
	if err != nil {
		return err
	}
	c, err := nvme.NewController(dev)
	if err != nil {
		return err
	}
	if !demo {
		if err := c.SetPowerState(ps); err != nil {
			return err
		}
		fmt.Fprintf(out, "set-feature:0x02 (Power Management), value:0x%08x (PS:%d)\n", ps, ps)
		return nil
	}
	// Demo: measure the same workload in ps0 and the requested state.
	run := func() (bw, pw float64) {
		rig := measure.NewRig(eng, rng.Stream(fmt.Sprint("rig", eng.Now())), dev)
		rig.Start()
		res := workload.Run(eng, dev, workload.Job{
			Op: device.OpWrite, Pattern: workload.Seq, BS: 256 << 10, Depth: 64,
			Runtime: 5 * time.Second, TotalBytes: 1 << 30,
		}, rng.Stream(fmt.Sprint("wl", eng.Now())))
		rig.Stop()
		return res.BandwidthMBps, rig.Trace().Mean()
	}
	bw0, pw0 := run()
	if err := c.SetPowerState(ps); err != nil {
		return err
	}
	bw1, pw1 := run()
	fmt.Fprintf(out, "set-feature:0x02 (Power Management), value:0x%08x (PS:%d)\n", ps, ps)
	fmt.Fprintf(out, "demo (seq write 256KiB qd64, 1 GiB):\n")
	fmt.Fprintf(out, "  ps0 : %7.1f MB/s at %5.2f W\n", bw0, pw0)
	fmt.Fprintf(out, "  ps%d : %7.1f MB/s at %5.2f W  (%.0f%% throughput, %.0f%% power)\n",
		ps, bw1, pw1, 100*bw1/bw0, 100*pw1/pw0)
	return nil
}

func apst(out io.Writer, args []string) error {
	c, err := ctrl(args[0])
	if err != nil {
		return err
	}
	if len(args) == 1 {
		on, err := c.GetAPST()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "get-feature:0x0c (Autonomous Power State Transition), Current value: %v\n", on)
		return nil
	}
	var enable bool
	switch args[1] {
	case "on":
		enable = true
	case "off":
	default:
		return fmt.Errorf("apst takes on or off, not %q", args[1])
	}
	if err := c.SetAPST(enable); err != nil {
		return err
	}
	fmt.Fprintf(out, "set-feature:0x0c (Autonomous Power State Transition), value: %v\n", enable)
	return nil
}
