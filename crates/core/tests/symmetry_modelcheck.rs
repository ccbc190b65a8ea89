//! Verdict-equivalence regression for symmetry-reduced exploration.
//!
//! Symmetry reduction must be invisible to every model-check verdict: for
//! each algorithm family the explorer is run with `--symmetry off`,
//! `registers` and `full`, and every verdict the repo's experiments rely
//! on — safety (mutual exclusion / agreement / validity / name
//! uniqueness), fair-livelock detection and obstruction freedom — must be
//! bit-identical across the three modes. Only the *state counts* may
//! shrink.
//!
//! Every mode's graph, at one worker and at four, must also be the
//! quotient graph the independent reference explorer
//! (`common/reference.rs`) computes: the same orbit set and, except under
//! `full` (which renumbers process slots), the same per-orbit edges.
//! Which concrete orbit representative gets stored is racy at four
//! workers, so the comparison is by canonical code, not by state.

mod common;

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

use anonreg::baseline::Peterson;
use anonreg::consensus::{AnonConsensus, ConsensusEvent};
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_sim::obstruction::check_obstruction_freedom;
use anonreg_sim::prelude::*;
use anonreg_sim::symmetry::ring_views;

use common::reference;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

const MODES: [SymmetryMode; 3] = [
    SymmetryMode::Off,
    SymmetryMode::Registers,
    SymmetryMode::Full,
];

/// Everything a family's model check decides, as comparable data.
#[derive(Debug, PartialEq, Eq)]
struct Verdicts {
    safety_violated: bool,
    fair_livelock: bool,
    /// `None` when the family's machines cycle forever (obstruction
    /// freedom is only checked for halting families).
    obstruction_free: Option<bool>,
}

fn explore<M>(
    build: &impl Fn() -> Simulation<M>,
    mode: SymmetryMode,
    threads: usize,
) -> StateGraph<M>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    Explorer::new(build())
        .max_states(500_000)
        .parallelism(threads)
        .symmetry(mode)
        .run()
        .unwrap()
}

/// Runs one family through all three modes (at 1 and at 4 workers),
/// asserts each graph is the reference quotient graph and that the
/// verdicts never move.
fn check_family<M>(
    family: &str,
    build: impl Fn() -> Simulation<M>,
    verdicts: impl Fn(&StateGraph<M>) -> Verdicts,
) where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let baseline_graph = explore(&build, SymmetryMode::Off, 1);
    let baseline = verdicts(&baseline_graph);
    for mode in MODES {
        let expected = reference::explore(&build(), false, false, mode);
        let seq = explore(&build, mode, 1);
        reference::assert_matches(&format!("{family} {mode} at 1 worker"), &seq, &expected);
        assert!(
            seq.state_count() <= baseline_graph.state_count(),
            "{family}: {mode} stored more states than off"
        );
        assert_eq!(
            verdicts(&seq),
            baseline,
            "{family}: one-worker verdicts diverged under {mode}"
        );
        let par = explore(&build, mode, 4);
        reference::assert_matches(&format!("{family} {mode} at 4 workers"), &par, &expected);
        assert_eq!(
            verdicts(&par),
            baseline,
            "{family}: four-worker verdicts diverged under {mode}"
        );
    }
}

/// Mutex-style verdicts, shared by the four mutual-exclusion families.
fn mutex_verdicts<M>(graph: &StateGraph<M>, section: impl Fn(&M) -> Section + Copy) -> Verdicts
where
    M: Machine<Event = MutexEvent> + Eq + Hash,
{
    let both_critical = |s: &Simulation<M>| {
        (0..s.process_count())
            .filter(|&p| section(s.machine(p)) == Section::Critical)
            .count()
            >= 2
    };
    Verdicts {
        safety_violated: graph.find_state(both_critical).is_some(),
        fair_livelock: graph
            .find_fair_livelock(
                |m| section(m) == Section::Entry,
                |e| *e == MutexEvent::Enter,
            )
            .is_some(),
        obstruction_free: None,
    }
}

#[test]
fn mutex_verdicts_are_symmetry_invariant() {
    check_family(
        "mutex",
        || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, AnonMutex::section),
    );
}

#[test]
fn ordered_mutex_verdicts_are_symmetry_invariant() {
    check_family(
        "ordered",
        || {
            Simulation::builder()
                .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, OrderedMutex::section),
    );
}

#[test]
fn hybrid_mutex_verdicts_are_symmetry_invariant() {
    check_family(
        "hybrid",
        || {
            let anon: Vec<usize> = (0..3).map(|j| (j + 1) % 3).collect();
            Simulation::builder()
                .process(
                    HybridMutex::new(pid(1), 3).unwrap(),
                    named_view(3, (0..3).collect()).unwrap(),
                )
                .process(
                    HybridMutex::new(pid(2), 3).unwrap(),
                    named_view(3, anon).unwrap(),
                )
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, HybridMutex::section),
    );
}

#[test]
fn peterson_verdicts_are_symmetry_invariant() {
    check_family(
        "peterson",
        || {
            Simulation::builder()
                .process_identity(Peterson::new(pid(1), 0).unwrap())
                .process_identity(Peterson::new(pid(2), 1).unwrap())
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, Peterson::section),
    );
}

#[test]
fn consensus_verdicts_are_symmetry_invariant() {
    let inputs = [1u64, 2];
    check_family(
        "consensus",
        || {
            Simulation::builder()
                .process(
                    AnonConsensus::new(pid(1), 2, inputs[0])
                        .unwrap()
                        .with_registers(2),
                    View::identity(2),
                )
                .process(
                    AnonConsensus::new(pid(2), 2, inputs[1])
                        .unwrap()
                        .with_registers(2),
                    View::rotated(2, 1),
                )
                .build()
                .unwrap()
        },
        |g| {
            let decisions = |s: &Simulation<AnonConsensus>| -> BTreeSet<u64> {
                (0..s.process_count())
                    .filter(|&p| s.machine(p).has_decided())
                    .map(|p| s.machine(p).preference())
                    .collect()
            };
            let agreement_violated = g.find_state(|s| decisions(s).len() >= 2).is_some();
            let validity_violated = g
                .find_state(|s| decisions(s).iter().any(|v| !inputs.contains(v)))
                .is_some();
            Verdicts {
                safety_violated: agreement_violated || validity_violated,
                fair_livelock: g
                    .find_fair_livelock(
                        |m| !m.has_decided(),
                        |e| matches!(e, ConsensusEvent::Decide(_)),
                    )
                    .is_some(),
                obstruction_free: Some(check_obstruction_freedom(g, 10_000).is_ok()),
            }
        },
    );
}

#[test]
fn election_verdicts_are_symmetry_invariant() {
    check_family(
        "election",
        || {
            Simulation::builder()
                .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| Verdicts {
            // Safety here: a process must never believe an election
            // finished while another has not even heard of one and the
            // graph holds a state with *no* possible progress. The cheap
            // invariant we pin instead: once everyone halted, everyone
            // elected.
            safety_violated: g
                .find_state(|s| {
                    s.all_halted() && (0..s.process_count()).any(|p| !s.machine(p).has_elected())
                })
                .is_some(),
            fair_livelock: false,
            obstruction_free: Some(check_obstruction_freedom(g, 10_000).is_ok()),
        },
    );
}

#[test]
fn renaming_verdicts_are_symmetry_invariant() {
    check_family(
        "renaming",
        || {
            Simulation::builder()
                .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| Verdicts {
            // Uniqueness: two named processes never share a name (round).
            safety_violated: g
                .find_state(|s| {
                    let names: Vec<u32> = (0..s.process_count())
                        .filter(|&p| s.machine(p).has_name())
                        .map(|p| s.machine(p).round())
                        .collect();
                    let distinct: BTreeSet<u32> = names.iter().copied().collect();
                    distinct.len() != names.len()
                })
                .is_some(),
            fair_livelock: false,
            obstruction_free: Some(check_obstruction_freedom(g, 10_000).is_ok()),
        },
    );
}

/// The headline reduction guarantee on a genuinely symmetric workload:
/// three identical machines behind identical views admit the full
/// symmetric group S₃, so `full` must store at least 2x fewer states than
/// `off` — and find exactly the same verdicts.
#[test]
fn full_mode_reduces_symmetric_mutex_at_least_2x() {
    let build = || {
        let mut b = Simulation::builder();
        for i in 0..3u64 {
            b = b.process(
                AnonMutex::new(Pid::new(i + 1).unwrap(), 2)
                    .unwrap()
                    .with_cycles(1),
                View::identity(2),
            );
        }
        b.build().unwrap()
    };
    let off = explore(&build, SymmetryMode::Off, 1);
    let full = explore(&build, SymmetryMode::Full, 1);
    assert!(
        off.state_count() >= 2 * full.state_count(),
        "expected >=2x reduction, got {} vs {}",
        off.state_count(),
        full.state_count()
    );
    assert_eq!(
        mutex_verdicts(&off, AnonMutex::section),
        mutex_verdicts(&full, AnonMutex::section)
    );
    // Four workers land on the same orbit set.
    let par = explore(&build, SymmetryMode::Full, 4);
    assert_eq!(par.state_count(), full.state_count());
    assert_eq!(par.edge_count(), full.edge_count());
}

/// `Registers` mode needs no identifier renaming to cut a workload whose
/// register contents are identifier-free: the ring-view `Stamper`-style
/// configuration from `crates/sim/tests/canon_orbit.rs` is covered there;
/// here we pin that `registers` stays *sound* (never below the `full`
/// count, never above the `off` count) on the ring mutex.
#[test]
fn registers_mode_is_bounded_by_off_and_full() {
    let views = ring_views(2, 2).unwrap();
    let build = || {
        let mut b = Simulation::builder();
        for (i, v) in views.iter().enumerate() {
            b = b.process(
                AnonMutex::new(Pid::new(i as u64 + 1).unwrap(), 2)
                    .unwrap()
                    .with_cycles(1),
                v.clone(),
            );
        }
        b.build().unwrap()
    };
    let off = explore(&build, SymmetryMode::Off, 1);
    let regs = explore(&build, SymmetryMode::Registers, 1);
    let full = explore(&build, SymmetryMode::Full, 1);
    assert!(regs.state_count() <= off.state_count());
    assert!(full.state_count() <= regs.state_count());
    assert_eq!(
        mutex_verdicts(&off, AnonMutex::section),
        mutex_verdicts(&regs, AnonMutex::section)
    );
    assert_eq!(
        mutex_verdicts(&off, AnonMutex::section),
        mutex_verdicts(&full, AnonMutex::section)
    );
}

/// The E16 sweeps measured *zero* `registers`-mode reduction on the ring
/// mutex and symmetric consensus at full orbit-search cost: every slot
/// carries a distinct identifier, which pins it, so canonicalization is
/// injective on the reachable set. The encoder must detect this at build
/// time and short-circuit to the plain identity path — state and edge
/// counts stay exactly the `off` counts, the `canon_skipped` counter
/// proves the fast path fired, and no canonicalization time is billed.
#[test]
fn registers_mode_skips_pid_pinned_orbits() {
    use anonreg_obs::{MemProbe, Metric};

    // The quick-scale E16 ring: procs == m, so the rotation group is
    // *non-trivial* and only the pid-pinning argument can fire.
    let views = ring_views(2, 2).unwrap();
    let build = || {
        let mut b = Simulation::builder();
        for (i, v) in views.iter().enumerate() {
            b = b.process(
                AnonMutex::new(Pid::new(i as u64 + 1).unwrap(), 2)
                    .unwrap()
                    .with_cycles(1),
                v.clone(),
            );
        }
        b.build().unwrap()
    };
    let off = Explorer::new(build()).max_states(500_000).run().unwrap();

    let probe = MemProbe::new();
    let regs = Explorer::new(build())
        .max_states(500_000)
        .symmetry(SymmetryMode::Registers)
        .probe(&probe)
        .run()
        .unwrap();
    let snap = probe.into_snapshot();

    // Pinned: the fast path must not change what `registers` stores.
    assert_eq!(regs.state_count(), off.state_count());
    assert_eq!(regs.edge_count(), off.edge_count());
    // Every worker encode took the fast path: one per explored edge.
    // (The initial state is encoded during set-up, outside every
    // worker's tally.)
    let skipped = snap.counter_total(Metric::CanonSkipped);
    assert_eq!(skipped, off.edge_count() as u64);
    // ...and the canonical path never ran.
    assert_eq!(snap.counter_total(Metric::SymmetryHits), 0);
    assert_eq!(snap.counter_total(Metric::CanonTime), 0);
    // The verdicts are the `off` verdicts by construction.
    assert_eq!(
        mutex_verdicts(&off, AnonMutex::section),
        mutex_verdicts(&regs, AnonMutex::section)
    );
}
