//! Cross-family verdict parity for ample-set partial-order reduction.
//!
//! The explorer's POR mode prunes successors at states where some live
//! process is poised at a register-free local step (event announcement or
//! halt): those steps commute with every other process's steps, and
//! milestone events are announced *by* them, so restricting expansion to
//! the local steps preserves every reachability and fairness verdict the
//! reproduction checks. This suite holds the reduction to that promise on
//! every algorithm family, at one worker and at several:
//!
//! * the reduced graph never has more states or edges than the full one;
//! * the family's safety verdict is bit-identical with POR on and off;
//! * every worker count produces exactly the reduced graph of the
//!   independent reference explorer (`common/reference.rs`, with its own
//!   ample-set rule), up to state renumbering;
//! * `run_stats` counts exactly what `run` materialises under POR;
//! * POR composed with `SymmetryMode::Registers` — sound because
//!   register renaming never touches process slots, so ample sets are
//!   orbit-invariant — keeps the safety verdict and never grows the
//!   reduced graph, while `SymmetryMode::Full` × POR is an explicit
//!   `ExploreError`;
//! * the mutex fairness verdicts (fair livelock, per-victim starvation)
//!   are identical with POR on and off.

mod common;

use std::fmt::Debug;
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

/// Runs the family with POR off and on, at several worker counts, and asserts
/// the contract described in the module docs. `violated` is the family's
/// safety predicate; its verdict must not move under the reduction.
fn check_por_parity<M>(
    family: &str,
    build: impl Fn() -> Simulation<M>,
    violated: impl Fn(&Simulation<M>) -> bool + Copy,
) where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
    M::Event: Debug,
{
    let full = Explorer::new(build()).max_states(500_000).run().unwrap();
    let reduced = Explorer::new(build())
        .max_states(500_000)
        .por(true)
        .run()
        .unwrap();
    assert!(
        reduced.state_count() <= full.state_count(),
        "{family}: POR grew the state space"
    );
    assert!(
        reduced.edge_count() <= full.edge_count(),
        "{family}: POR grew the edge set"
    );
    assert_eq!(
        full.find_state(&violated).is_some(),
        reduced.find_state(&violated).is_some(),
        "{family}: safety verdict moved under POR"
    );

    let expected = reference::explore(&build(), false, true, SymmetryMode::Off);
    reference::assert_matches(&format!("{family} at 1 worker"), &reduced, &expected);
    for threads in [2, 4] {
        let parallel = Explorer::new(build())
            .max_states(500_000)
            .por(true)
            .parallelism(threads)
            .run()
            .unwrap();
        reference::assert_matches(
            &format!("{family} at {threads} workers"),
            &parallel,
            &expected,
        );
    }

    for threads in [1, 2] {
        let stats = Explorer::new(build())
            .max_states(500_000)
            .por(true)
            .parallelism(threads)
            .run_stats()
            .unwrap();
        assert_eq!(
            stats.states as usize,
            reduced.state_count(),
            "{family} stats at {threads} threads: state count"
        );
        assert_eq!(
            stats.edges as usize,
            reduced.edge_count(),
            "{family} stats at {threads} threads: edge count"
        );
    }

    // POR composed with register-symmetry reduction: the quotient of the
    // reduced graph can only shrink it further, the safety verdict must
    // not move, and `run_stats` must count what `run` stores.
    let composed = Explorer::new(build())
        .max_states(500_000)
        .por(true)
        .symmetry(SymmetryMode::Registers)
        .run()
        .unwrap();
    reference::assert_matches(
        &format!("{family} composed"),
        &composed,
        &reference::explore(&build(), false, true, SymmetryMode::Registers),
    );
    assert!(
        composed.state_count() <= reduced.state_count(),
        "{family}: POR × Registers grew the state space"
    );
    assert!(
        composed.edge_count() <= reduced.edge_count(),
        "{family}: POR × Registers grew the edge set"
    );
    assert_eq!(
        full.find_state(&violated).is_some(),
        composed.find_state(&violated).is_some(),
        "{family}: safety verdict moved under POR × Registers"
    );
    let composed_stats = Explorer::new(build())
        .max_states(500_000)
        .por(true)
        .symmetry(SymmetryMode::Registers)
        .parallelism(2)
        .run_stats()
        .unwrap();
    assert_eq!(
        composed_stats.states as usize,
        composed.state_count(),
        "{family} composed stats: state count"
    );
    assert_eq!(
        composed_stats.edges as usize,
        composed.edge_count(),
        "{family} composed stats: edge count"
    );

    // Full-mode canonicalization un-pins process slots; composing it
    // with POR must stay an explicit error on both run paths.
    let err = Explorer::new(build())
        .por(true)
        .symmetry(SymmetryMode::Full)
        .run()
        .unwrap_err();
    assert_eq!(err, ExploreError::PorWithFullSymmetry, "{family}");
    let err = Explorer::new(build())
        .por(true)
        .symmetry(SymmetryMode::Full)
        .run_stats()
        .unwrap_err();
    assert_eq!(err, ExploreError::PorWithFullSymmetry, "{family}");
    assert!(!err.to_string().is_empty());
}

/// Two processes are simultaneously critical — the mutual-exclusion
/// violation predicate shared by every mutex-like family.
fn overlap<M>(section: impl Fn(&M) -> Section + Copy) -> impl Fn(&Simulation<M>) -> bool + Copy
where
    M: Machine + Eq + Hash,
{
    move |s: &Simulation<M>| {
        s.machines()
            .filter(|m| section(m) == Section::Critical)
            .count()
            >= 2
    }
}

#[test]
fn mutex_por_verdicts_match() {
    check_por_parity(
        "mutex",
        || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        overlap(AnonMutex::section),
    );
}

#[test]
fn ordered_mutex_por_verdicts_match() {
    check_por_parity(
        "ordered",
        || {
            Simulation::builder()
                .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        overlap(OrderedMutex::section),
    );
}

#[test]
fn hybrid_mutex_por_verdicts_match() {
    check_por_parity(
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
        overlap(HybridMutex::section),
    );
}

#[test]
fn peterson_baseline_por_verdicts_match() {
    check_por_parity(
        "peterson",
        || {
            Simulation::builder()
                .process_identity(Peterson::new(pid(1), 0).unwrap())
                .process_identity(Peterson::new(pid(2), 1).unwrap())
                .build()
                .unwrap()
        },
        overlap(Peterson::section),
    );
}

#[test]
fn consensus_por_verdicts_match() {
    check_por_parity(
        "consensus",
        || {
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
        },
        // Agreement: two decided processes must hold the same preference.
        |s| {
            let decided: Vec<u64> = s
                .machines()
                .filter(|m| m.has_decided())
                .map(AnonConsensus::preference)
                .collect();
            decided.len() == 2 && decided[0] != decided[1]
        },
    );
}

#[test]
fn renaming_por_verdicts_match() {
    check_por_parity(
        "renaming",
        || {
            Simulation::builder()
                .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        // Termination without a name is the renaming failure mode.
        |s| s.all_halted() && s.machines().any(|m| !m.has_name()),
    );
}

#[test]
fn election_por_verdicts_match() {
    check_por_parity(
        "election",
        || {
            Simulation::builder()
                .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        // A halted process that never learned the leader.
        |s| s.all_halted() && s.machines().any(|m| !m.has_elected()),
    );
}

/// The fairness analyses must return the same verdicts on the reduced
/// graph: milestone events are only announced by local steps, which the
/// ample set always keeps.
#[test]
fn mutex_fairness_verdicts_survive_por() {
    for m in [3usize, 4] {
        let build = || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), m).unwrap(), View::identity(m))
                .process(AnonMutex::new(pid(2), m).unwrap(), View::rotated(m, 1))
                .build()
                .unwrap()
        };
        let full = Explorer::new(build()).run().unwrap();
        let reduced = Explorer::new(build()).por(true).run().unwrap();
        let reduced_par = Explorer::new(build())
            .por(true)
            .parallelism(2)
            .run()
            .unwrap();

        let entry = |mach: &AnonMutex| mach.section() == Section::Entry;
        let enter = |e: &MutexEvent| *e == MutexEvent::Enter;
        assert_eq!(
            full.find_fair_livelock(entry, enter).is_some(),
            reduced.find_fair_livelock(entry, enter).is_some(),
            "livelock verdict moved under POR at m = {m}"
        );
        assert_eq!(
            reduced.find_fair_livelock(entry, enter).is_some(),
            reduced_par.find_fair_livelock(entry, enter).is_some(),
            "livelock verdict differs between worker counts at m = {m}"
        );
        for victim in 0..2 {
            assert_eq!(
                full.find_fair_starvation(victim, entry, enter).is_some(),
                reduced.find_fair_starvation(victim, entry, enter).is_some(),
                "starvation verdict moved under POR for p{victim} at m = {m}"
            );
            assert_eq!(
                reduced.find_fair_starvation(victim, entry, enter).is_some(),
                reduced_par
                    .find_fair_starvation(victim, entry, enter)
                    .is_some(),
                "starvation verdict differs between worker counts for p{victim} at m = {m}"
            );
        }
    }
}
