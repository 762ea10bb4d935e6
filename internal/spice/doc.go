// Package spice implements a compact SPICE-class transient circuit
// simulator: modified nodal analysis (MNA) with backward-Euler integration
// and Newton-Raphson iteration over level-1 MOSFET models. It exists to
// reproduce the paper's circuit-level study (§4.5, Figs. 8 and 9): the DRAM
// cell / bitline / sense-amplifier netlist of Table 2, simulated across VPP
// levels with Monte-Carlo parameter variation.
//
// The engine is general: circuits are built from resistors, capacitors,
// piecewise-linear voltage sources, and MOSFETs, then integrated on a fixed
// base time grid, with error-controlled adaptive coarsening through
// quiescent stretches. Only the features the paper's study needs are
// implemented — no AC analysis, no higher-order integration.
//
// # Engines and accuracy contracts
//
// Two engines back one API, and one measurement loop (measureActivation
// over the stepper in adaptive.go) drives both:
//
//   - The dense reference engine (NewTransientReference,
//     SimulateActivationReference) re-stamps the full MNA system with
//     finite-difference Jacobians on every Newton iteration. It is the
//     historical behavior, kept as the golden oracle, and always integrates
//     every cell of the fixed grid.
//   - The incremental engine (NewTransient) eliminates grounded-source
//     nodes up front, assembles static stamps once, and adds only analytic
//     MOSFET linearizations per iteration. On the full grid it is pinned
//     to the reference within 1e-9 V on the Fig. 8a/9a waveforms at every
//     sweep VPP (TestGoldenIncrementalMatchesReference).
//
// The stepping policy follows from the probe, not from a setting: a run
// with a non-nil Probe integrates and samples every cell of the StepPS grid
// (the waveform figures); a run without one (every Monte-Carlo sample)
// steps adaptively, covering quiescent stretches with step-doubling
// validated multi-cell coarse steps. Adaptive samples stay within
// AccuracyTolV of the dense reference at shared grid times, and reported
// threshold crossings (tRCDmin, tRASmin) are quantized onto the base grid
// with values BIT-IDENTICAL to full-grid integration across the sweep and
// the golden Monte-Carlo population (TestAdaptiveCrossingsMatchFixedGrid) —
// the invariant that keeps the campaign goldens and shard artifacts
// byte-stable.
//
// # Determinism and memory
//
// Monte-Carlo campaigns (RunMonteCarlo, RunMonteCarloSweep) draw every run
// from a per-level, per-index RNG stream and fold outcomes into streaming
// stats.Dist accumulators in strict (level, run) order through
// pool.RunOrdered, so results are byte-identical at any worker count and
// campaign memory is independent of the run count. Each worker reuses one
// Workspace (re-stamping values instead of rebuilding the netlist), which
// is bit-identical to a fresh simulation and allocation-free in steady
// state. MCResult.Merge folds same-level run-range partials in run order
// for sharded campaigns.
//
// The allocation-free property is a checked contract, not a convention:
// the stepping core (Transient.Step, Reset, setDt, stampCellValues) and
// the aggregation fold (MCResult.record) carry //detlint:hotpath
// annotations naming their runtime AllocsPerRun witnesses, and the
// hotalloc analyzer flags any heap allocation reachable from them (see
// docs/CONTRACTS.md). MCResult is likewise under the mergecontract
// analyzer's coverage/serializability checks.
package spice
