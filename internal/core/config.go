// Package core implements the paper's characterization methodology — the
// primary contribution being reproduced. It contains faithful
// implementations of:
//
//   - Alg. 1: the HCfirst / BER test (double-sided RowHammer with a
//     divide-and-conquer hammer-count search);
//   - Alg. 2: the minimum reliable row-activation-latency (tRCDmin) sweep in
//     FPGA command-quantum steps;
//   - Alg. 3: the data-retention sweep over power-of-two refresh windows;
//   - the worst-case data pattern (WCDP) selection procedures of §4.2-§4.4.
//
// The algorithms interact with the device exclusively through the SoftMC
// controller: they issue commands and compare read-back data, never touching
// the ground-truth physics.
package core

import (
	"errors"

	"github.com/dramstudy/rhvpp/internal/physics"
)

// Errors reported by the characterization algorithms.
var (
	// ErrNoAggressors means a victim row has no resolvable aggressor pair
	// (subarray-boundary rows cannot be attacked double-sided).
	ErrNoAggressors = errors.New("core: victim has no double-sided aggressor pair")
	// ErrSweepDiverged means a parameter sweep left its sane bounds.
	ErrSweepDiverged = errors.New("core: sweep diverged outside parameter bounds")
)

// Config holds the methodology parameters of §4. The defaults mirror the
// paper; Quick() shrinks the repetition counts for fast runs.
type Config struct {
	// Iterations is the number of repetitions per measurement; the paper
	// runs each test ten times and keeps the worst case.
	Iterations int
	// WCDPIterations is the repetition count used during worst-case data
	// pattern profiling (kept low: WCDP selection is a pre-pass).
	WCDPIterations int
	// RefHC is the fixed per-aggressor hammer count used for BER
	// measurements (300K, §4.2).
	RefHC int
	// InitialHCStep is the starting step of the HCfirst search (150K).
	InitialHCStep int
	// MinHCStep is the search's terminal granularity (100).
	MinHCStep int
	// TRCDStartNS is the Alg. 2 sweep's starting latency (nominal 13.5 ns).
	TRCDStartNS float64
	// TRCDStepNS is the sweep step (the 1.5 ns FPGA command quantum).
	TRCDStepNS float64
	// TRCDMaxNS bounds the upward sweep.
	TRCDMaxNS float64
	// RetentionWindowsMS is the ladder of refresh windows tested by Alg. 3
	// (16 ms to 16 s in powers of two, §4.4).
	RetentionWindowsMS []float64
	// Bank is the bank under test.
	Bank int
}

// Default returns the paper's parameters.
func Default() Config {
	return Config{
		Iterations:         10,
		WCDPIterations:     1,
		RefHC:              physics.ReferenceHammerCount,
		InitialHCStep:      150_000,
		MinHCStep:          100,
		TRCDStartNS:        physics.TRCDNominalNS,
		TRCDStepNS:         physics.CommandQuantumNS,
		TRCDMaxNS:          45,
		RetentionWindowsMS: []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
		Bank:               0,
	}
}

// Quick returns a reduced-effort configuration for tests and smoke runs:
// fewer repetitions and a coarser terminal HC granularity, with the same
// sweep structure.
func Quick() Config {
	c := Default()
	c.Iterations = 3
	c.MinHCStep = 2000
	return c
}

// SelectRows returns the tested victim rows: chunks of consecutive rows
// evenly distributed across the bank (the paper tests four chunks of 1K rows
// each, §4.2). Rows are logical addresses, ascending and distinct: chunk c
// starts at row c·RowsPerBank/chunks and stops short of the next chunk's
// start, so chunks larger than the bank's share are cut there, and more
// chunks than rows select every row once.
func SelectRows(geom physics.Geometry, chunks, rowsPerChunk int) []int {
	total := geom.RowsPerBank
	if chunks < 1 || rowsPerChunk < 1 || total < 1 {
		return nil
	}
	chunks = min(chunks, total)
	size := total // the count, without forming chunks·rowsPerChunk when it exceeds the bank
	if rowsPerChunk <= total/chunks {
		size = chunks * rowsPerChunk
	}
	rows := make([]int, 0, size)
	for c := 0; c < chunks; c++ {
		start, next := c*total/chunks, (c+1)*total/chunks
		for r := start; r < next && r-start < rowsPerChunk; r++ {
			rows = append(rows, r)
		}
	}
	return rows
}
