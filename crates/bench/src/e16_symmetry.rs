//! E16 — symmetry-reduced exploration: orbit canonicalization payoff.
//!
//! The paper's model is symmetric twice over: registers are anonymous
//! (§2 — nothing distinguishes one register from another beyond a
//! process's private view of them) and the algorithms are symmetric in
//! the Theorem 3.4 sense (identifiers are compared, never computed
//! with). Both symmetries induce automorphisms of the reachable state
//! graph, so the explorer only needs one representative per orbit. This
//! experiment measures that payoff: each workload is explored under
//! `--symmetry off`, `registers` and `full` and the table reports how
//! many fewer states (and edges) each mode stores, with verdict parity
//! hard-asserted — a reduction that changed a verdict would be a
//! soundness bug, not a measurement.
//!
//! Two workloads bracket the group sizes that arise in practice:
//!
//! * **Figure 1 mutex on a ring** — `procs` processes over `m`
//!   registers through `ring_views`, one critical-section cycle each.
//!   The view ring admits the cyclic group `C_procs`, so `full` can
//!   approach a `procs`-fold reduction.
//! * **Symmetric Figure 2 consensus** — `n` processes with *equal*
//!   inputs behind identity views, under-provisioned at `registers`
//!   registers. Fully interchangeable processes admit the symmetric
//!   group `S_n`, the best case for `full` (`n!`-fold ceiling).
//!
//! `Registers` mode is expected to report ~1.0x here: both algorithms
//! stamp identifiers into registers, so distinct slots essentially never
//! reach bit-identical local states — the honest baseline that motivates
//! the identifier-renaming half of `full`.

use std::time::{Duration, Instant};

use anonreg::consensus::AnonConsensus;
use anonreg::mutex::{AnonMutex, Section};
use anonreg::{Pid, View};
use anonreg_sim::prelude::*;
use anonreg_sim::symmetry::ring_views;

use crate::benchjson::BenchMetric;
use crate::live::{self, Instruments};
use crate::table::Table;

/// One of the two symmetric workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1 mutex: `procs` processes over `m` registers via ring
    /// views, one critical-section cycle each. Requires `procs ∣ m`.
    MutexRing {
        /// Anonymous registers.
        m: usize,
        /// Ring processes.
        procs: usize,
    },
    /// Figure 2 consensus: `n` equal-input processes behind identity
    /// views over `registers` anonymous registers.
    SymmetricConsensus {
        /// Consensus processes.
        n: usize,
        /// Anonymous registers (under-provisioned below `2n − 1`).
        registers: usize,
    },
}

impl Workload {
    /// The full-scale pair reported in `BENCH_explore.json`.
    #[must_use]
    pub fn full_scale() -> [Workload; 2] {
        [
            Workload::MutexRing { m: 3, procs: 3 },
            Workload::SymmetricConsensus { n: 3, registers: 2 },
        ]
    }

    /// Metric-friendly identifier, e.g. `mutex_m3_l3`.
    #[must_use]
    pub fn slug(&self) -> String {
        match *self {
            Workload::MutexRing { m, procs } => format!("mutex_m{m}_l{procs}"),
            Workload::SymmetricConsensus { n, registers } => {
                format!("consensus_n{n}_r{registers}")
            }
        }
    }

    fn family(&self) -> &'static str {
        match self {
            Workload::MutexRing { .. } => "mutex",
            Workload::SymmetricConsensus { .. } => "consensus",
        }
    }
}

/// One timed exploration of a workload under one symmetry mode.
#[derive(Clone, Debug)]
pub struct Row {
    /// Which workload was explored.
    pub workload: Workload,
    /// The symmetry mode the explorer quotiented by.
    pub mode: SymmetryMode,
    /// Explorer worker threads (`1` = one worker, on the calling thread).
    pub threads: usize,
    /// Stored orbit representatives.
    pub states: usize,
    /// Stored transitions.
    pub edges: usize,
    /// Wall time of the exploration.
    pub elapsed: Duration,
}

impl Row {
    /// Stored-state reduction relative to `baseline` (normally the
    /// `off` row of the same workload): `baseline.states / self.states`.
    #[must_use]
    pub fn reduction_over(&self, baseline: &Row) -> f64 {
        baseline.states as f64 / (self.states as f64).max(1.0)
    }
}

/// Builds the ring-mutex simulation.
///
/// # Panics
///
/// Panics if `procs` does not divide `m` or `procs < 2`.
#[must_use]
pub fn mutex_ring_sim(m: usize, procs: usize) -> Simulation<AnonMutex> {
    let views = ring_views(m, procs).unwrap();
    let mut builder = Simulation::builder();
    for (i, view) in views.into_iter().enumerate() {
        builder = builder.process(
            AnonMutex::new(Pid::new(i as u64 + 1).unwrap(), m)
                .unwrap()
                .with_cycles(1),
            view,
        );
    }
    builder.build().unwrap()
}

/// Builds the equal-input identity-view consensus simulation.
///
/// # Panics
///
/// Panics if `n` or `registers` is zero.
#[must_use]
pub fn symmetric_consensus_sim(n: usize, registers: usize) -> Simulation<AnonConsensus> {
    let mut builder = Simulation::builder();
    for i in 0..n {
        builder = builder.process(
            AnonConsensus::new(Pid::new(i as u64 + 1).unwrap(), n, 1)
                .unwrap()
                .with_registers(registers),
            View::identity(registers),
        );
    }
    builder.build().unwrap()
}

/// The safety verdict of a workload's graph, compared across modes.
fn verdict(
    workload: Workload,
    graph_mutex: Option<&StateGraph<AnonMutex>>,
    graph_cons: Option<&StateGraph<AnonConsensus>>,
) -> bool {
    match workload {
        Workload::MutexRing { .. } => graph_mutex
            .unwrap()
            .find_state(|s| {
                (0..s.process_count())
                    .filter(|&p| s.machine(p).section() == Section::Critical)
                    .count()
                    >= 2
            })
            .is_some(),
        Workload::SymmetricConsensus { .. } => graph_cons
            .unwrap()
            .find_state(|s| {
                let mut decided = (0..s.process_count())
                    .filter(|&p| s.machine(p).has_decided())
                    .map(|p| s.machine(p).preference());
                let first = decided.next();
                first.is_some_and(|v| v != 1) || decided.any(|v| Some(v) != first)
            })
            .is_some(),
    }
}

/// Explores `workload` once per symmetry mode (`off`, `registers`,
/// `full`, in that order) at `threads` threads.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`] if the `off` space
/// exceeds `max_states`.
///
/// # Panics
///
/// Panics if any mode's safety verdict diverges from the `off`
/// baseline, or a reduced mode stores *more* states than `off` — either
/// would be a canonicalization soundness bug, not a measurement.
pub fn rows(
    workload: Workload,
    threads: usize,
    max_states: usize,
) -> Result<Vec<Row>, ExploreError> {
    rows_with(workload, threads, max_states, &Instruments::none())
}

/// [`rows`] with live instrumentation attached: every mode's exploration
/// feeds the shared probe (for `--stream`) and/or the profiler.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
///
/// # Panics
///
/// Same divergence assertions as [`rows`].
pub fn rows_with(
    workload: Workload,
    threads: usize,
    max_states: usize,
    ins: &Instruments<'_>,
) -> Result<Vec<Row>, ExploreError> {
    const MODES: [SymmetryMode; 3] = [
        SymmetryMode::Off,
        SymmetryMode::Registers,
        SymmetryMode::Full,
    ];
    let mut out: Vec<Row> = Vec::new();
    let mut baseline_verdict: Option<bool> = None;
    for mode in MODES {
        let start = Instant::now();
        let (states, edges, violated) = match workload {
            Workload::MutexRing { m, procs } => {
                let graph =
                    live::explore(mutex_ring_sim(m, procs), mode, threads, max_states, ins)?;
                (
                    graph.state_count(),
                    graph.edge_count(),
                    verdict(workload, Some(&graph), None),
                )
            }
            Workload::SymmetricConsensus { n, registers } => {
                let graph = live::explore(
                    symmetric_consensus_sim(n, registers),
                    mode,
                    threads,
                    max_states,
                    ins,
                )?;
                (
                    graph.state_count(),
                    graph.edge_count(),
                    verdict(workload, None, Some(&graph)),
                )
            }
        };
        let elapsed = start.elapsed();
        match baseline_verdict {
            None => baseline_verdict = Some(violated),
            Some(base) => assert_eq!(
                violated,
                base,
                "{}: safety verdict diverged under {mode}",
                workload.slug()
            ),
        }
        if let Some(off) = out.first() {
            assert!(
                states <= off.states,
                "{}: {mode} stored more states than off ({} vs {})",
                workload.slug(),
                states,
                off.states
            );
        }
        out.push(Row {
            workload,
            mode,
            threads,
            states,
            edges,
            elapsed,
        });
    }
    Ok(out)
}

/// Renders the reduction table for one or more workloads' rows.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "workload",
        "mode",
        "threads",
        "states",
        "edges",
        "elapsed",
        "reduction",
    ]);
    for r in rows {
        let baseline = rows
            .iter()
            .find(|b| b.workload == r.workload && b.mode == SymmetryMode::Off);
        t.row(vec![
            r.workload.slug(),
            r.mode.to_string(),
            r.threads.to_string(),
            r.states.to_string(),
            r.edges.to_string(),
            format!("{:?}", r.elapsed),
            baseline.map_or_else(String::new, |b| format!("{:.2}x", r.reduction_over(b))),
        ]);
    }
    t.render()
}

/// Machine-readable metrics for the given rows (experiment `E16`).
#[must_use]
pub fn metrics(rows: &[Row]) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for r in rows {
        let base = format!("{}_{}_t{}", r.workload.slug(), r.mode, r.threads);
        let family = r.workload.family();
        out.push(BenchMetric::new(
            "E16",
            family,
            format!("{base}_states"),
            r.states as f64,
            "states",
        ));
        out.push(BenchMetric::new(
            "E16",
            family,
            format!("{base}_edges"),
            r.edges as f64,
            "edges",
        ));
        out.push(BenchMetric::new(
            "E16",
            family,
            format!("{base}_time"),
            r.elapsed.as_secs_f64() * 1000.0,
            "ms",
        ));
        if let Some(b) = rows
            .iter()
            .find(|b| b.workload == r.workload && b.mode == SymmetryMode::Off)
        {
            out.push(BenchMetric::new(
                "E16",
                family,
                format!("{base}_reduction"),
                r.reduction_over(b),
                "x",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mutex_sweep_reduces_and_agrees() {
        let rows = rows(Workload::MutexRing { m: 2, procs: 2 }, 1, 200_000).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, SymmetryMode::Off);
        assert!(rows[0].states > 100);
        // Full strictly reduces even this 2-process ring.
        assert!(rows[2].states < rows[0].states);
        assert!(rows[2].reduction_over(&rows[0]) > 1.0);
    }

    #[test]
    fn quick_consensus_sweep_reduces_and_agrees() {
        let rows = rows(
            Workload::SymmetricConsensus { n: 2, registers: 2 },
            2,
            200_000,
        )
        .unwrap();
        // Two fully interchangeable processes: essentially the S₂
        // halving (diagonal states fixed by the swap are their own
        // orbits, so the ratio lands just under 2.0 on tiny spaces).
        assert!(
            rows[2].reduction_over(&rows[0]) > 1.9,
            "expected ~2x, rows: {rows:?}"
        );
    }

    #[test]
    fn render_and_metrics_cover_all_rows() {
        let rows = rows(Workload::MutexRing { m: 2, procs: 2 }, 1, 200_000).unwrap();
        let table = render(&rows);
        assert!(table.contains("reduction"));
        assert!(table.contains("mutex_m2_l2"));
        let metrics = metrics(&rows);
        // states/edges/time/reduction for every row.
        assert_eq!(metrics.len(), 4 * rows.len());
        assert!(metrics.iter().all(|m| m.experiment == "E16"));
    }

    /// The E16 regression this PR fixes: `Registers` mode on workloads
    /// whose pids pin every slot (the ring mutex, the symmetric
    /// consensus) used to pay full orbit-search cost for provably zero
    /// reduction — 14% slower than `off` at identical counts in
    /// `BENCH_explore.json`. The encoder now detects that at build time
    /// and takes the identity fast path. Deterministic assertion, not a
    /// wall-clock one: the probe must report *skipped* encodes and no
    /// canonicalization time, at one worker and at two.
    #[test]
    fn registers_fast_path_skips_trivial_orbits_at_any_worker_count() {
        use anonreg_obs::{MemProbe, Metric};

        for workload in [
            Workload::MutexRing { m: 2, procs: 2 },
            Workload::SymmetricConsensus { n: 2, registers: 2 },
        ] {
            let baseline = {
                let probe = MemProbe::new();
                match workload {
                    Workload::MutexRing { m, procs } => Explorer::new(mutex_ring_sim(m, procs))
                        .max_states(200_000)
                        .probe(&probe)
                        .run_stats()
                        .unwrap(),
                    Workload::SymmetricConsensus { n, registers } => {
                        Explorer::new(symmetric_consensus_sim(n, registers))
                            .max_states(200_000)
                            .probe(&probe)
                            .run_stats()
                            .unwrap()
                    }
                }
            };
            for threads in [1usize, 2] {
                let probe = MemProbe::new();
                let run = |probe: &MemProbe| match workload {
                    Workload::MutexRing { m, procs } => Explorer::new(mutex_ring_sim(m, procs))
                        .max_states(200_000)
                        .parallelism(threads)
                        .probe(probe)
                        .symmetry(SymmetryMode::Registers)
                        .run_stats()
                        .unwrap(),
                    Workload::SymmetricConsensus { n, registers } => {
                        Explorer::new(symmetric_consensus_sim(n, registers))
                            .max_states(200_000)
                            .parallelism(threads)
                            .probe(probe)
                            .symmetry(SymmetryMode::Registers)
                            .run_stats()
                            .unwrap()
                    }
                };
                let stats = run(&probe);
                let snap = probe.snapshot();
                let slug = workload.slug();
                assert!(
                    snap.counter_total(Metric::CanonSkipped) > 0,
                    "{slug} t{threads}: fast path did not engage"
                );
                assert_eq!(
                    snap.counter_total(Metric::CanonTime),
                    0,
                    "{slug} t{threads}: canonicalization was still timed"
                );
                assert_eq!(
                    snap.counter_total(Metric::SymmetryHits),
                    0,
                    "{slug} t{threads}: fast path cannot move configurations"
                );
                // Pid-pinned slots ⇒ zero reduction was already the
                // status quo; the fast path must preserve the counts.
                assert_eq!(
                    (stats.states, stats.edges),
                    (baseline.states, baseline.edges),
                    "{slug} t{threads}: fast path changed the graph"
                );
            }
        }
    }

    #[test]
    fn limit_error_propagates() {
        assert!(matches!(
            rows(Workload::SymmetricConsensus { n: 2, registers: 2 }, 1, 10),
            Err(ExploreError::StateLimitExceeded { limit: 10 })
        ));
    }
}
