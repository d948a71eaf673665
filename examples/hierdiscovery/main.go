// hierdiscovery: the paper's full Fig. 5 workflow end to end on the
// simulated Armv8 server — discover the hierarchy experimentally (§3.1),
// generate all compositions (§4.1), run the scripted benchmark and select
// the best locks under both policies (§4.3), and measure the winner against
// the HMCS baseline.
//
//	go run ./examples/hierdiscovery [-quick]
package main

import (
	"flag"
	"fmt"
	"os"

	clof "github.com/clof-go/clof"
)

func main() {
	quickFlag := flag.Bool("quick", true, "reduced grid for a fast demo")
	flag.Parse()

	m := clof.Armv8Server()

	// Step 1 (§3.1): discover the memory hierarchy with the ping-pong
	// microbenchmark and derive a hierarchy configuration.
	fmt.Println("step 1: experimental hierarchy discovery")
	sp := clof.Speedups(m, 0)
	for lvl := clof.Core; lvl <= clof.System; lvl++ {
		if v, ok := sp[lvl]; ok {
			fmt.Printf("  %-12s speedup %5.2f over the system cohort\n", lvl, v)
		}
	}
	h, err := clof.DetectHierarchy(m, 0, 1.25)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("  detected hierarchy:", h)

	// Step 2 (§4.1): generate every composition of the verified basic
	// locks over the detected levels.
	basics := clof.BasicLocks(m.Arch)
	comps := clof.Generate(basics, h.Depth())
	fmt.Printf("\nstep 2: generated %d compositions of %d basic locks over %d levels\n",
		len(comps), len(basics), h.Depth())

	// Step 3 (§4.3): the scripted benchmark — each composition across a
	// contention grid on the simulated LevelDB workload, the same sweep
	// cmd/clof-bench runs.
	grid := []int{1, 8, 32, 127}
	if !*quickFlag {
		grid = []int{1, 4, 8, 16, 24, 32, 48, 64, 95, 127}
	}
	fmt.Printf("\nstep 3: scripted benchmark over threads %v (%d runs)...\n", grid, len(comps)*len(grid))
	sel, err := clof.ScriptedBenchmark(h, comps, grid)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  HC-best: %s\n  LC-best: %s\n  worst:   %s\n",
		sel.HCBest.Comp, sel.LCBest.Comp, sel.Worst.Comp)

	// Step 4: sanity-check the selected lock against the HMCS baseline at
	// full contention.
	fmt.Println("\nstep 4: HC-best vs HMCS at full contention")
	// must turns a constructor's error into the example's exit path.
	must := func(l clof.Lock, err error) clof.Lock {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return l
	}
	for _, e := range []struct {
		name string
		mk   func() clof.Lock
	}{
		{"clof " + sel.HCBest.Comp.String(), func() clof.Lock { return must(clof.Compose(h, sel.HCBest.Comp)) }},
		{"hmcs", func() clof.Lock { return must(clof.NewHMCS(h)) }},
	} {
		res, err := clof.RunWorkload(e.mk, clof.LevelDBWorkload(m, 127))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-28s %6.3f iter/µs (jain %.2f)\n", e.name, res.ThroughputOpsPerUs(), res.Jain())
	}
}
