//! E19 — model checking at scale: stats-mode exploration with ample-set
//! partial-order reduction and disk spill.
//!
//! E16 measures *symmetry* reduction on graphs small enough to
//! materialise; this experiment pushes past that, running the
//! fingerprint-table engine in stats-only mode (no graph, no stored
//! states unless spilled) over workloads an order of magnitude larger
//! — the fully loaded `m = 3` ring (the E16 bottleneck), the Figure 1
//! ring mutex at `m = 4`, and the Figure 2 consensus at `n = 4`. Each
//! workload runs under a named configuration:
//!
//! * `off` — no reduction, the exact-count parity anchor (only used on
//!   the quick workload, where the full space is still cheap);
//! * `por` — ample-set POR, in memory;
//! * `por_spill` — POR with interned state codes spilled to disk behind
//!   the LRU tier, the configuration the 10-minute scale budget is
//!   measured against.
//!
//! The headline metric is **throughput** (distinct states interned per
//! second, unit `ops_per_s`, higher-better under `check bench-diff`);
//! `states`/`edges` on `por*` rows compare lower-better there because
//! the names declare the reduction (see [`crate::benchdiff`]).

use std::time::{Duration, Instant};

use anonreg_sim::prelude::*;

use crate::benchjson::BenchMetric;
use crate::e16_symmetry::{mutex_ring_sim, symmetric_consensus_sim, Workload};
use crate::live::{self, Instruments};
use crate::table::Table;

/// One named explorer configuration of a scale run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Ample-set partial-order reduction.
    pub por: bool,
    /// Disk spill of interned state codes.
    pub spill: bool,
}

impl RunConfig {
    /// Metric-name segment: `off`, `por`, or `por_spill`. The `por`
    /// segment is what flips `check bench-diff` into lower-better
    /// comparison for the counts.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match (self.por, self.spill) {
            (false, false) => "off",
            (false, true) => "spill",
            (true, false) => "por",
            (true, true) => "por_spill",
        }
    }
}

/// One stats-mode exploration of a workload under one configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Which workload was explored.
    pub workload: Workload,
    /// The reduction/spill configuration.
    pub config: RunConfig,
    /// Explorer worker threads (`1` = one worker, on the calling thread).
    pub threads: usize,
    /// The exploration counters.
    pub stats: ExploreStats,
    /// Wall time of the exploration.
    pub elapsed: Duration,
}

impl Row {
    /// Distinct states interned per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.stats.states as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The full-scale workload trio the 10-minute budget covers.
///
/// The headline space is the fully loaded `m = 3`, `ℓ = 3` ring — the
/// E16 bottleneck workload (multi-million states), here explored
/// without materializing the graph. The `m = 4` ring runs with
/// `ℓ = 2`: `ℓ` must divide `m` for the ring views, and the fully
/// loaded `ℓ = 4` ring exceeds **100M states after POR** (measured:
/// `LimitExceeded` at 24 minutes on one core), so it busts any
/// single-core budget. Likewise the `n = 4` consensus runs with one
/// register per process: at `r = 2` the space passes 40M states with
/// the frontier still growing at ten minutes. Those two measured
/// walls are the honest scale frontier — the engine streams >100M
/// distinct states through the fingerprint table without falling
/// over; what runs to completion here is everything on this side of
/// that wall.
#[must_use]
pub fn full_scale() -> [Workload; 3] {
    [
        Workload::MutexRing { m: 3, procs: 3 },
        Workload::MutexRing { m: 4, procs: 2 },
        Workload::SymmetricConsensus { n: 4, registers: 1 },
    ]
}

/// The CI-sized workload: the E16 consensus space, small enough to run
/// all three configurations (including the exact-count `off` anchor).
#[must_use]
pub fn quick() -> [Workload; 1] {
    [Workload::SymmetricConsensus { n: 3, registers: 2 }]
}

/// The configurations run per workload. The `off` anchor only runs when
/// `with_baseline` (the quick flow); at full scale the unreduced space
/// is the thing we are avoiding.
#[must_use]
pub fn configs(with_baseline: bool) -> Vec<RunConfig> {
    let mut out = Vec::new();
    if with_baseline {
        out.push(RunConfig {
            por: false,
            spill: false,
        });
    }
    out.push(RunConfig {
        por: true,
        spill: false,
    });
    out.push(RunConfig {
        por: true,
        spill: true,
    });
    out
}

fn run_one(
    workload: Workload,
    config: RunConfig,
    threads: usize,
    max_states: usize,
    ins: &Instruments<'_>,
) -> Result<ExploreStats, ExploreError> {
    match workload {
        Workload::MutexRing { m, procs } => live::explore_stats(
            mutex_ring_sim(m, procs),
            config.por,
            config.spill,
            threads,
            max_states,
            ins,
        ),
        Workload::SymmetricConsensus { n, registers } => live::explore_stats(
            symmetric_consensus_sim(n, registers),
            config.por,
            config.spill,
            threads,
            max_states,
            ins,
        ),
    }
}

/// Runs every `(workload, config)` pair in stats mode and asserts the
/// POR soundness invariants the scale flow can still afford to check:
/// within a workload, every configuration with the same `por` setting
/// interns the same state and edge counts (spill must be
/// count-invisible), and a `por` row never exceeds an `off` row.
///
/// # Errors
///
/// Propagates the first exploration error.
///
/// # Panics
///
/// Panics if spill changes the counts or POR grows them — either is an
/// engine soundness bug, not a measurement.
pub fn rows_with(
    workloads: &[Workload],
    with_baseline: bool,
    threads: usize,
    max_states: usize,
    ins: &Instruments<'_>,
) -> Result<Vec<Row>, ExploreError> {
    let mut rows = Vec::new();
    for &workload in workloads {
        let mut per_workload: Vec<Row> = Vec::new();
        for config in configs(with_baseline) {
            let start = Instant::now();
            let stats = run_one(workload, config, threads, max_states, ins)?;
            let elapsed = start.elapsed();
            for prior in &per_workload {
                if prior.config.por == config.por {
                    assert_eq!(
                        (prior.stats.states, prior.stats.edges),
                        (stats.states, stats.edges),
                        "{}: spill changed the counts",
                        workload.slug()
                    );
                } else if !prior.config.por && config.por {
                    assert!(
                        stats.states <= prior.stats.states && stats.edges <= prior.stats.edges,
                        "{}: POR grew the state space",
                        workload.slug()
                    );
                }
            }
            per_workload.push(Row {
                workload,
                config,
                threads,
                stats,
                elapsed,
            });
        }
        rows.extend(per_workload);
    }
    Ok(rows)
}

/// [`rows_with`] without instrumentation.
///
/// # Errors
///
/// Propagates the first exploration error.
pub fn rows(
    workloads: &[Workload],
    with_baseline: bool,
    threads: usize,
    max_states: usize,
) -> Result<Vec<Row>, ExploreError> {
    rows_with(
        workloads,
        with_baseline,
        threads,
        max_states,
        &Instruments::none(),
    )
}

/// Renders the human table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "workload",
        "config",
        "threads",
        "states",
        "edges",
        "dedup hits",
        "max depth",
        "time",
        "states/s",
    ]);
    for row in rows {
        t.row(vec![
            row.workload.slug(),
            row.config.slug().to_string(),
            row.threads.to_string(),
            row.stats.states.to_string(),
            row.stats.edges.to_string(),
            row.stats.dedup.to_string(),
            row.stats.max_depth.to_string(),
            format!("{:.1} ms", row.elapsed.as_secs_f64() * 1e3),
            format!("{:.0}", row.throughput()),
        ]);
    }
    t.render()
}

/// Emits the schema-v1 bench metrics:
/// `{workload}_{config}_t{threads}_{states|edges|time|throughput}`.
#[must_use]
pub fn metrics(rows: &[Row]) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for row in rows {
        let family = match row.workload {
            Workload::MutexRing { .. } => "mutex",
            Workload::SymmetricConsensus { .. } => "consensus",
        };
        let base = format!(
            "{}_{}_t{}",
            row.workload.slug(),
            row.config.slug(),
            row.threads
        );
        out.push(BenchMetric::new(
            "E19",
            family,
            format!("{base}_states"),
            row.stats.states as f64,
            "states",
        ));
        out.push(BenchMetric::new(
            "E19",
            family,
            format!("{base}_edges"),
            row.stats.edges as f64,
            "edges",
        ));
        out.push(BenchMetric::new(
            "E19",
            family,
            format!("{base}_time"),
            row.elapsed.as_secs_f64() * 1e3,
            "ms",
        ));
        out.push(BenchMetric::new(
            "E19",
            family,
            format!("{base}_throughput"),
            row.throughput(),
            "ops_per_s",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg_obs::schema::validate_jsonl;

    /// Diagnostic probe, not part of the suite: sizes the m=4 ring
    /// mutex under every engine/POR combination.
    #[test]
    #[ignore = "manual sizing probe"]
    fn probe_m4l2_counts() {
        let graph = Explorer::new(mutex_ring_sim(4, 2))
            .max_states(50_000_000)
            .run()
            .unwrap();
        println!(
            "graph seq off: {} states {} edges",
            graph.state_count(),
            graph.edge_count()
        );
        for (por, threads) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
            let stats = live::explore_stats(
                mutex_ring_sim(4, 2),
                por,
                false,
                threads,
                50_000_000,
                &Instruments::none(),
            )
            .unwrap();
            println!(
                "stats por={por} t={threads}: {} states {} edges",
                stats.states, stats.edges
            );
        }
    }

    /// Diagnostic probe, not part of the suite: sizes the full-scale
    /// workload candidates to completion in stats mode under POR.
    #[test]
    #[ignore = "manual sizing probe"]
    fn probe_full_scale_counts() {
        use std::time::Instant;
        for (label, por) in [("por", true), ("off", false)] {
            let t1 = Instant::now();
            let stats = live::explore_stats(
                mutex_ring_sim(3, 3),
                por,
                false,
                4,
                100_000_000,
                &Instruments::none(),
            )
            .unwrap();
            println!(
                "mutex m3 l3 {label} t4: {} states {} edges in {:?}",
                stats.states,
                stats.edges,
                t1.elapsed()
            );
        }
    }

    /// A tiny consensus space exercises all three configurations end to
    /// end and holds the cross-configuration count invariants.
    #[test]
    fn quick_rows_hold_invariants_and_emit_valid_metrics() {
        let workloads = [Workload::SymmetricConsensus { n: 2, registers: 2 }];
        let rows = rows(&workloads, true, 2, 100_000).unwrap();
        assert_eq!(rows.len(), 3);
        let off = &rows[0];
        let por = &rows[1];
        let por_spill = &rows[2];
        assert_eq!(off.config.slug(), "off");
        assert!(por.stats.states <= off.stats.states);
        assert_eq!(por.stats.states, por_spill.stats.states);
        assert_eq!(por.stats.edges, por_spill.stats.edges);
        assert!(rows.iter().all(|r| r.throughput() > 0.0));

        let jsonl = crate::benchjson::to_jsonl(&metrics(&rows));
        assert_eq!(validate_jsonl(&jsonl).unwrap(), 12);
        assert!(jsonl.contains("consensus_n2_r2_por_spill_t2_throughput"));
    }
}
