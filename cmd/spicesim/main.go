// Command spicesim runs the standalone circuit-level study: the DRAM cell /
// bitline / sense-amplifier netlist of the paper's Table 2 under a chosen
// wordline voltage, printing either the transient waveform (Figs. 8a/9a) or
// a Monte-Carlo latency distribution (Figs. 8b/9b).
//
//	spicesim -vpp 1.8 -waveform
//	spicesim -vpp 1.7 -runs 1000
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/dramstudy/rhvpp/internal/report"
	"github.com/dramstudy/rhvpp/internal/spice"
)

func main() {
	var (
		vpp      = flag.Float64("vpp", 2.5, "wordline voltage (V)")
		waveform = flag.Bool("waveform", false, "print the transient waveform instead of Monte Carlo")
		runs     = flag.Int("runs", 500, "Monte-Carlo runs")
		seed     = flag.Uint64("seed", 2022, "Monte-Carlo seed")
		varPct   = flag.Float64("variation", 5, "component variation (percent)")
	)
	flag.Parse()
	if *runs < 1 {
		fatal(fmt.Errorf("-runs %d: want at least 1 Monte-Carlo run", *runs))
	}
	if v := *varPct; !(v >= 0) || math.IsInf(v, 1) {
		fatal(fmt.Errorf("-variation %g: want a finite, non-negative percentage", v))
	}

	if *waveform {
		fmt.Printf("# t(ns)  Vbitline(V)  Vcell(V)   [VPP=%.2fV]\n", *vpp)
		// A probed run samples every 25 ps cell; print every 20th (0.5 ns).
		step := 0
		_, err := spice.SimulateActivation(spice.DefaultCellParams(*vpp), func(tNS, vbl, vcell float64) {
			if step%20 == 0 {
				fmt.Printf("%7.2f  %8.4f  %8.4f\n", tNS, vbl, vcell)
			}
			step++
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	res, err := spice.MonteCarlo(*vpp, *runs, *seed, *varPct/100)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("VPP = %.2fV, %d runs, ±%.0f%% variation\n", *vpp, res.Runs, *varPct)
	fmt.Printf("reliable activations: %.1f%% (%d unreliable, %d unrestored, %d no-converge)\n",
		res.ReliableFraction()*100, res.Unreliable, res.Unrestored, res.NoConverge)
	t := report.NewSummaryTable("latency distributions (ns), from the streaming campaign accumulators")
	if s, err := res.TRCDmin.Summary(); err == nil {
		t.AddSummary("tRCDmin", s)
	}
	if s, err := res.TRASmin.Summary(); err == nil {
		t.AddSummary("tRASmin", s)
	}
	if len(t.Rows) > 0 {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spicesim:", err)
	os.Exit(1)
}
