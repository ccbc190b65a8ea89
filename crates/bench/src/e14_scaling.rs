//! E14 — parallel model-checking scalability on the Figure 2 consensus
//! state space.
//!
//! Every verdict in this reproduction rests on exhaustively enumerating
//! reachable configurations, and anonymous-register spaces explode with
//! `n` and the register count. This experiment measures how far the
//! [`Explorer`]'s workers (lock-free dedup table, per-worker
//! work-stealing deques, interned states) push that wall: the same
//! Figure 2 consensus space is explored at increasing thread counts and
//! each run must reproduce the one-worker run's exact state and edge
//! counts — a speedup only counts if the graph is identical.
//!
//! The default full-scale workload is `n = 3` with 2 registers
//! (under-provisioned). That choice is deliberate: at `n = 3` the
//! provisioned `2n − 1 = 5`-register space exceeds several million states
//! and does not fit CI-class memory, while the 2-register space
//! (~390 000 states, ~1.1 M transitions) is the largest n = 3 Figure 2
//! space that completes everywhere. Exploration cost per state is
//! identical whether or not agreement holds, so the under-provisioned
//! space is a faithful scaling workload — and `check explore --registers`
//! lets bigger machines run the provisioned one.

use std::time::{Duration, Instant};

use anonreg::consensus::AnonConsensus;
use anonreg::{Pid, View};
use anonreg_sim::prelude::*;

use crate::benchjson::BenchMetric;
use crate::live::{self, Instruments};
use crate::table::Table;

/// One timed exploration of the consensus space.
#[derive(Clone, Debug)]
pub struct Row {
    /// Number of consensus processes.
    pub n: usize,
    /// Number of anonymous registers.
    pub registers: usize,
    /// Explorer worker threads (`1` = one worker, on the calling thread).
    pub threads: usize,
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions.
    pub edges: usize,
    /// Wall time of the exploration.
    pub elapsed: Duration,
}

impl Row {
    /// Wall-clock speedup relative to `baseline` (normally the
    /// single-thread row of the same workload).
    #[must_use]
    pub fn speedup_over(&self, baseline: &Row) -> f64 {
        baseline.elapsed.as_secs_f64() / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Builds the Figure 2 consensus simulation explored by this experiment:
/// `n` processes with distinct inputs `1..=n`, `registers` anonymous
/// registers, process `i`'s view rotated by `i · shift`.
///
/// # Panics
///
/// Panics if `n` or `registers` is zero.
#[must_use]
pub fn consensus_sim(n: usize, registers: usize, shift: usize) -> Simulation<AnonConsensus> {
    let mut builder = Simulation::builder();
    for i in 0..n {
        builder = builder.process(
            AnonConsensus::new(Pid::new(i as u64 + 1).unwrap(), n, i as u64 + 1)
                .unwrap()
                .with_registers(registers),
            View::rotated(registers, (i * shift) % registers),
        );
    }
    builder.build().unwrap()
}

/// Explores the workload once at the given thread count.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`] if the space exceeds
/// `max_states`.
pub fn timed_explore(
    n: usize,
    registers: usize,
    threads: usize,
    max_states: usize,
) -> Result<Row, ExploreError> {
    timed_explore_with(n, registers, threads, max_states, &Instruments::none())
}

/// [`timed_explore`] with live instrumentation (shared probe and/or
/// profiler) attached to the run.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
pub fn timed_explore_with(
    n: usize,
    registers: usize,
    threads: usize,
    max_states: usize,
    ins: &Instruments<'_>,
) -> Result<Row, ExploreError> {
    let sim = consensus_sim(n, registers, 1);
    let start = Instant::now();
    let graph = live::explore(sim, SymmetryMode::Off, threads, max_states, ins)?;
    Ok(Row {
        n,
        registers,
        threads,
        states: graph.state_count(),
        edges: graph.edge_count(),
        elapsed: start.elapsed(),
    })
}

/// The scaling sweep: the workload explored once per entry of
/// `thread_counts` (the first entry should be `1`, the one-worker
/// baseline).
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
///
/// # Panics
///
/// Panics if any run disagrees with the first on state or edge counts —
/// a parallel exploration that loses or invents states is a checker bug,
/// not a measurement.
pub fn rows(
    n: usize,
    registers: usize,
    thread_counts: &[usize],
    max_states: usize,
) -> Result<Vec<Row>, ExploreError> {
    rows_with(
        n,
        registers,
        thread_counts,
        max_states,
        &Instruments::none(),
    )
}

/// [`rows`] with live instrumentation attached to every exploration.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
///
/// # Panics
///
/// Same divergence assertion as [`rows`].
pub fn rows_with(
    n: usize,
    registers: usize,
    thread_counts: &[usize],
    max_states: usize,
    ins: &Instruments<'_>,
) -> Result<Vec<Row>, ExploreError> {
    let mut out: Vec<Row> = Vec::new();
    for &threads in thread_counts {
        let row = timed_explore_with(n, registers, threads, max_states, ins)?;
        if let Some(first) = out.first() {
            assert_eq!(
                (row.states, row.edges),
                (first.states, first.edges),
                "parallel exploration at {threads} threads diverged from the baseline graph"
            );
        }
        out.push(row);
    }
    Ok(out)
}

/// Renders the scaling table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "n",
        "registers",
        "threads",
        "states",
        "edges",
        "elapsed",
        "speedup",
    ]);
    let baseline = rows.first();
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.registers.to_string(),
            r.threads.to_string(),
            r.states.to_string(),
            r.edges.to_string(),
            format!("{:?}", r.elapsed),
            baseline.map_or_else(String::new, |b| format!("{:.2}x", r.speedup_over(b))),
        ]);
    }
    t.render()
}

/// Machine-readable metrics for the given rows (experiment `E14`).
#[must_use]
pub fn metrics(rows: &[Row]) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    let baseline = rows.first();
    for r in rows {
        let base = format!("consensus_n{}_r{}_t{}", r.n, r.registers, r.threads);
        out.push(BenchMetric::new(
            "E14",
            "consensus",
            format!("{base}_states"),
            r.states as f64,
            "states",
        ));
        out.push(BenchMetric::new(
            "E14",
            "consensus",
            format!("{base}_edges"),
            r.edges as f64,
            "edges",
        ));
        out.push(BenchMetric::new(
            "E14",
            "consensus",
            format!("{base}_time"),
            r.elapsed.as_secs_f64() * 1000.0,
            "ms",
        ));
        if let Some(b) = baseline {
            out.push(BenchMetric::new(
                "E14",
                "consensus",
                format!("{base}_speedup"),
                r.speedup_over(b),
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
    fn quick_sweep_counts_agree() {
        // n = 2 fully provisioned is small enough for a test.
        let rows = rows(2, 3, &[1, 2], 200_000).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].states, rows[1].states);
        assert_eq!(rows[0].edges, rows[1].edges);
        assert!(rows[0].states > 100);
    }

    #[test]
    fn render_and_metrics_cover_all_rows() {
        let rows = rows(2, 2, &[1, 2], 200_000).unwrap();
        let table = render(&rows);
        assert!(table.contains("speedup"));
        let metrics = metrics(&rows);
        // states/edges/time for every row, speedup for every row.
        assert_eq!(metrics.len(), 4 * rows.len());
        assert!(metrics.iter().all(|m| m.experiment == "E14"));
    }

    #[test]
    fn limit_error_propagates() {
        assert!(matches!(
            timed_explore(2, 3, 2, 10),
            Err(ExploreError::StateLimitExceeded { limit: 10 })
        ));
    }
}
