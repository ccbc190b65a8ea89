//! Cross-family regression: the explorer must produce the reference
//! graph on every algorithm family of the reproduction, at one worker and
//! at several.
//!
//! The reference is an independent breadth-first explorer over the
//! public `Simulation` API (`common/reference.rs`). State ids are
//! run-specific (several workers number states in race order), so
//! equality is checked up to the bijection induced by canonical codes:
//! identical state counts, a one-to-one state match, and identical
//! per-state edge multisets under that bijection. The fairness analyses
//! must then agree verdict-for-verdict regardless of the numbering.

mod common;

use std::hash::Hash;

use anonreg::baseline::Peterson;
use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_sim::prelude::*;

use common::reference;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// Explores `build()` at 1, 2 and 4 workers, asserting each graph is the
/// reference graph.
fn check_family<M>(family: &str, crashes: bool, build: impl Fn() -> Simulation<M>)
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let expected = reference::explore(&build(), crashes, false, SymmetryMode::Off);
    for threads in [1, 2, 4] {
        let graph = Explorer::new(build())
            .max_states(500_000)
            .crashes(crashes)
            .parallelism(threads)
            .run()
            .unwrap();
        reference::assert_matches(&format!("{family} at {threads} workers"), &graph, &expected);
    }
}

#[test]
fn anonymous_mutex_graphs_are_isomorphic() {
    check_family("mutex", false, || {
        Simulation::builder()
            .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn anonymous_mutex_crash_graphs_are_isomorphic() {
    check_family("mutex+crashes", true, || {
        Simulation::builder()
            .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn ordered_mutex_graphs_are_isomorphic() {
    check_family("ordered", false, || {
        Simulation::builder()
            .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn hybrid_mutex_graphs_are_isomorphic() {
    check_family("hybrid", false, || {
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
    });
}

#[test]
fn consensus_graphs_are_isomorphic() {
    check_family("consensus", false, || {
        Simulation::builder()
            .process(
                AnonConsensus::new(pid(1), 2, 1).unwrap().with_registers(2),
                View::identity(2),
            )
            .process(
                AnonConsensus::new(pid(2), 2, 2).unwrap().with_registers(2),
                View::rotated(2, 1),
            )
            .build()
            .unwrap()
    });
}

#[test]
fn renaming_graphs_are_isomorphic() {
    check_family("renaming", false, || {
        Simulation::builder()
            .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn election_graphs_are_isomorphic() {
    check_family("election", false, || {
        Simulation::builder()
            .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn peterson_baseline_graphs_are_isomorphic() {
    check_family("peterson", false, || {
        Simulation::builder()
            .process_identity(Peterson::new(pid(1), 0).unwrap())
            .process_identity(Peterson::new(pid(2), 1).unwrap())
            .build()
            .unwrap()
    });
}

/// The fairness analyses walk SCCs in canonical order, so their verdicts
/// must not depend on how a run numbered the states.
#[test]
fn fairness_verdicts_are_numbering_independent() {
    for m in [3usize, 4] {
        let build = || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), m).unwrap(), View::identity(m))
                .process(AnonMutex::new(pid(2), m).unwrap(), View::rotated(m, 1))
                .build()
                .unwrap()
        };
        let seq = Explorer::new(build()).run().unwrap();
        let par = Explorer::new(build()).parallelism(4).run().unwrap();

        let entry = |mach: &AnonMutex| mach.section() == Section::Entry;
        let enter = |e: &MutexEvent| *e == MutexEvent::Enter;
        assert_eq!(
            seq.find_fair_livelock(entry, enter).is_some(),
            par.find_fair_livelock(entry, enter).is_some(),
            "livelock verdict diverged at m = {m}"
        );
        for victim in 0..2 {
            assert_eq!(
                seq.find_fair_starvation(victim, entry, enter).is_some(),
                par.find_fair_starvation(victim, entry, enter).is_some(),
                "starvation verdict diverged for p{victim} at m = {m}"
            );
        }

        // Canonical SCC lists are fully deterministic per graph.
        assert_eq!(seq.nontrivial_sccs(), seq.nontrivial_sccs());
        assert_eq!(par.nontrivial_sccs(), par.nontrivial_sccs());
    }
}

/// `max_states` is a budget, not a reservation: a 104-state instance
/// under a 10⁸ cap allocates a few tens of KiB for its dedup table,
/// code arena and state store, at one worker and at four, in graph and
/// in stats mode.
#[test]
fn explorer_memory_follows_the_states_not_the_cap() {
    use anonreg_obs::{MemProbe, Metric};

    let build = || {
        Simulation::builder()
            .process(
                AnonConsensus::new(pid(1), 2, 1).unwrap().with_registers(1),
                View::identity(1),
            )
            .process(
                AnonConsensus::new(pid(2), 2, 2).unwrap().with_registers(1),
                View::identity(1),
            )
            .build()
            .unwrap()
    };
    for threads in [1, 4] {
        let probe = MemProbe::new();
        let graph = Explorer::new(build())
            .max_states(100_000_000)
            .parallelism(threads)
            .probe(&probe)
            .run()
            .unwrap();
        assert_eq!(graph.state_count(), 104);
        let reserved = probe
            .snapshot()
            .gauge_stat(Metric::ExploreReservedBytes)
            .expect("the explorer reports its reservation")
            .last;
        assert!(
            reserved < 1 << 20,
            "{threads} workers reserved {reserved} bytes for 104 states"
        );

        let probe = MemProbe::new();
        let stats = Explorer::new(build())
            .max_states(100_000_000)
            .parallelism(threads)
            .probe(&probe)
            .run_stats()
            .unwrap();
        assert_eq!(stats.states, 104);
        let reserved = probe
            .snapshot()
            .gauge_stat(Metric::ExploreReservedBytes)
            .unwrap()
            .last;
        assert!(
            reserved < 1 << 20,
            "stats mode, {threads} workers: {reserved} bytes"
        );
    }
}
