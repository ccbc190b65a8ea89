//! E18 — wall-clock phase profiling of the E16 exploration workloads
//! and the runtime driver.
//!
//! `BENCH_explore.json` says *that* the mutex `m = 3, ℓ = 3` sweep costs
//! 121 s — this experiment says *where* the time goes. Each E16 workload
//! is explored with a [`Profiler`] attached: every explorer worker drives
//! a phase timer (`step`/`canon`/`dedup`/`steal`/`idle`) and flushes its
//! per-phase self-time tree when the run ends; table set-up, worker
//! spawn and graph assembly are charged to every worker's `setup`. The same machinery profiles the
//! runtime [`Driver`] on real threads (`doorway`/`waiting`/`critical`,
//! with backoff windows nested as `…;waiting`), mapping the paper's §2
//! operations onto measured wall-clock.
//!
//! Self-times are *exhaustive* by construction — a worker is always in
//! exactly one phase between its first transition and its flush — so
//! the per-run **coverage** (total self-time over workers × wall-clock)
//! must account for most of the run; `check profile` enforces a floor
//! on it. It cannot reach 1.0 exactly: the wall (from building the
//! simulation to the explorer returning its graph) also covers the
//! simulation build and the explorer's configuration. The
//! collapsed-stack export ([`ProfiledRun::collapsed`]) is the
//! `inferno`/speedscope flamegraph format, one `run;worker;phase ns`
//! line per frame.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonreg::mutex::{AnonMutex, MutexEvent};
use anonreg::{Pid, View};
use anonreg_obs::{Phase, Profiler, WorkerProfile};
use anonreg_runtime::{AnonymousMemory, Backoff, Driver, PackedAtomicRegister};
use anonreg_sim::prelude::*;

use crate::benchjson::BenchMetric;
use crate::e16_symmetry::{mutex_ring_sim, symmetric_consensus_sim, Workload};
use crate::live::Instruments;
use crate::table::Table;

/// The event→phase map for the paper's mutual-exclusion events:
/// `Enter` begins the critical section, `Exit`/`Aborted` return the
/// process to its doorway/remainder code.
#[must_use]
pub fn mutex_phase(event: &MutexEvent) -> Option<Phase> {
    match event {
        MutexEvent::Enter => Some(Phase::Critical),
        MutexEvent::Exit | MutexEvent::Aborted => Some(Phase::Doorway),
    }
}

/// One profiled exploration of an E16 workload.
#[derive(Debug)]
pub struct ProfiledRun {
    /// A short identifier, e.g. `mutex_m2_l2_full_t1` for explorations
    /// or `driver_m3` for the runtime run.
    pub slug: String,
    /// Worker threads the run used (runtime: racing processes).
    pub threads: usize,
    /// States stored (0 for runtime runs).
    pub states: usize,
    /// Wall-clock of the instrumented section.
    pub wall: Duration,
    /// Every worker's flushed phase tree.
    pub profiles: Vec<WorkerProfile>,
}

impl ProfiledRun {
    /// Total self-time across all workers and frames.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.profiles.iter().map(WorkerProfile::total_self_ns).sum()
    }

    /// Self-time coverage of the measured wall-clock: total self-time
    /// divided by `workers × wall`. Near 1.0 when the phase timers
    /// account for (almost) everything the workers did.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let workers = self.profiles.len().max(1) as f64;
        self.total_self_ns() as f64 / (workers * self.wall.as_nanos().max(1) as f64)
    }

    /// Per-stack self-time aggregated over workers, sorted by
    /// descending self-time.
    #[must_use]
    pub fn phase_breakdown(&self) -> Vec<(String, u64)> {
        let mut by_stack = std::collections::BTreeMap::<&str, u64>::new();
        for w in &self.profiles {
            for (stack, ns) in &w.frames {
                *by_stack.entry(stack).or_insert(0) += ns;
            }
        }
        let mut out: Vec<(String, u64)> = by_stack
            .into_iter()
            .map(|(s, ns)| (s.to_string(), ns))
            .collect();
        out.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        out
    }

    /// Collapsed-stack flamegraph lines for this run, rooted at the run
    /// slug: `mutex_m2_l2_off_t1;worker0;step 12345`.
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for w in &self.profiles {
            for (stack, ns) in &w.frames {
                out.push_str(&format!("{};worker{};{stack} {ns}\n", self.slug, w.worker));
            }
        }
        out
    }
}

/// Explores one E16 workload under `mode` with the profiler attached.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
pub fn profile_workload(
    workload: Workload,
    mode: SymmetryMode,
    threads: usize,
    max_states: usize,
) -> Result<ProfiledRun, ExploreError> {
    let profiler = Arc::new(Profiler::new());
    let ins = Instruments {
        probe: None,
        profiler: Some(Arc::clone(&profiler)),
    };
    // The wall ends when the explorer hands back its graph; freeing the
    // graph afterwards is the caller's cost, not the exploration's.
    let start = Instant::now();
    let (states, wall) = match workload {
        Workload::MutexRing { m, procs } => {
            let graph =
                crate::live::explore(mutex_ring_sim(m, procs), mode, threads, max_states, &ins)?;
            (graph.state_count(), start.elapsed())
        }
        Workload::SymmetricConsensus { n, registers } => {
            let graph = crate::live::explore(
                symmetric_consensus_sim(n, registers),
                mode,
                threads,
                max_states,
                &ins,
            )?;
            (graph.state_count(), start.elapsed())
        }
    };
    Ok(ProfiledRun {
        slug: format!("{}_{}_t{}", workload.slug(), mode, threads),
        threads,
        states,
        wall,
        profiles: profiler.profiles(),
    })
}

/// Profiles the runtime driver: two real threads race the Figure 1
/// lock (`m` registers, second view rotated by 1, `entries` critical
/// sections each, randomized backoff on) with phase timers keyed by
/// pid. The resulting frames are the §2 protocol operations:
/// `doorway`, `critical`, and nested `…;waiting` backoff windows.
#[must_use]
pub fn profile_runtime(m: usize, entries: u64) -> ProfiledRun {
    let profiler = Arc::new(Profiler::new());
    let mem: AnonymousMemory<PackedAtomicRegister<u64>> = AnonymousMemory::new(m);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (id, shift) in [(1u64, 0usize), (2, 1 % m)] {
            let view = mem.view(View::rotated(m, shift));
            let profiler = Arc::clone(&profiler);
            s.spawn(move || {
                let machine = AnonMutex::new(Pid::new(id).unwrap(), m)
                    .unwrap()
                    .with_cycles(entries);
                let mut driver = Driver::new(machine, view)
                    .with_backoff(Backoff {
                        min_spins: 1,
                        max_spins: 1 << 10,
                    })
                    .with_profiler(profiler, mutex_phase);
                driver.run_to_halt();
            });
        }
    });
    let wall = start.elapsed();
    ProfiledRun {
        slug: format!("driver_m{m}"),
        threads: 2,
        states: 0,
        wall,
        profiles: profiler.profiles(),
    }
}

/// The default profiling sweep: both E16 workloads (quick or
/// full-scale shapes) under `off` and `full`, at `threads` threads.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
pub fn rows(
    full_scale: bool,
    threads: usize,
    max_states: usize,
) -> Result<Vec<ProfiledRun>, ExploreError> {
    let workloads = if full_scale {
        Workload::full_scale().to_vec()
    } else {
        vec![
            Workload::MutexRing { m: 2, procs: 2 },
            Workload::SymmetricConsensus { n: 2, registers: 2 },
        ]
    };
    let mut out = Vec::new();
    for workload in workloads {
        for mode in [SymmetryMode::Off, SymmetryMode::Full] {
            out.push(profile_workload(workload, mode, threads, max_states)?);
        }
    }
    Ok(out)
}

/// Renders the per-run phase breakdown table.
#[must_use]
pub fn render(runs: &[ProfiledRun]) -> String {
    let mut t = Table::new(vec!["run", "phase stack", "self ms", "share", "coverage"]);
    for run in runs {
        let total = run.total_self_ns().max(1);
        let mut first = true;
        for (stack, ns) in run.phase_breakdown() {
            t.row(vec![
                run.slug.clone(),
                stack,
                format!("{:.2}", ns as f64 / 1e6),
                format!("{:.1}%", ns as f64 * 100.0 / total as f64),
                if first {
                    format!("{:.1}%", run.coverage() * 100.0)
                } else {
                    String::new()
                },
            ]);
            first = false;
        }
    }
    t.render()
}

/// Machine-readable metrics for the given runs (experiment `E18`):
/// per-stack self-milliseconds, wall-clock, and coverage per run.
#[must_use]
pub fn metrics(runs: &[ProfiledRun]) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for run in runs {
        let family = if run.slug.starts_with("consensus") {
            "consensus"
        } else {
            "mutex"
        };
        for (stack, ns) in run.phase_breakdown() {
            out.push(BenchMetric::new(
                "E18",
                family,
                format!("{}_{}_ms", run.slug, stack.replace(';', ".")),
                ns as f64 / 1e6,
                "ms",
            ));
        }
        out.push(BenchMetric::new(
            "E18",
            family,
            format!("{}_wall_ms", run.slug),
            run.wall.as_secs_f64() * 1000.0,
            "ms",
        ));
        out.push(BenchMetric::new(
            "E18",
            family,
            format!("{}_coverage", run.slug),
            run.coverage(),
            "x",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_explore_profile_covers_the_wall_clock() {
        let run = profile_workload(
            Workload::SymmetricConsensus { n: 2, registers: 2 },
            SymmetryMode::Off,
            1,
            200_000,
        )
        .unwrap();
        assert_eq!(run.profiles.len(), 1, "one worker, one phase tree");
        assert!(run.states > 100);
        let stacks: Vec<&str> = run.profiles[0]
            .frames
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        assert!(stacks.contains(&"step"), "missing step in {stacks:?}");
        assert!(stacks.contains(&"dedup"), "missing dedup in {stacks:?}");
        // Worker 0's timer runs on the calling thread from table set-up
        // to graph assembly, so self-times must account for (nearly) the
        // whole exploration.
        assert!(stacks.contains(&"setup"), "missing setup in {stacks:?}");
        assert!(
            run.coverage() > 0.8,
            "coverage {:.3} too low ({:?} wall, {} self ns)",
            run.coverage(),
            run.wall,
            run.total_self_ns()
        );
    }

    #[test]
    fn full_mode_profile_shows_canon_time() {
        let run = profile_workload(
            Workload::MutexRing { m: 2, procs: 2 },
            SymmetryMode::Full,
            1,
            200_000,
        )
        .unwrap();
        assert!(
            run.phase_breakdown().iter().any(|(s, _)| s == "canon"),
            "full-mode exploration must charge canon time: {:?}",
            run.phase_breakdown()
        );
    }

    #[test]
    fn parallel_profile_has_one_tree_per_worker() {
        let run = profile_workload(
            Workload::SymmetricConsensus { n: 2, registers: 2 },
            SymmetryMode::Off,
            2,
            200_000,
        )
        .unwrap();
        assert_eq!(run.profiles.len(), 2);
        let collapsed = run.collapsed();
        assert!(collapsed.contains("worker0;"));
        assert!(collapsed.contains("worker1;"));
        assert!(collapsed
            .lines()
            .all(|l| l.starts_with("consensus_n2_r2_off_t2;")));
    }

    #[test]
    fn runtime_profile_charges_protocol_phases() {
        let run = profile_runtime(3, 50);
        assert_eq!(run.profiles.len(), 2, "one tree per racing process");
        let breakdown = run.phase_breakdown();
        assert!(breakdown.iter().any(|(s, _)| s == "doorway"));
        assert!(breakdown.iter().any(|(s, _)| s == "critical"));
        let m = metrics(std::slice::from_ref(&run));
        assert!(m.iter().any(|x| x.name == "driver_m3_wall_ms"));
        assert!(m.iter().all(|x| x.experiment == "E18"));
    }
}
