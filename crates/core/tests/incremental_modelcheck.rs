//! Tier-1 cached model checking: the seven verified families answered
//! through the proof-carrying reachability cache.
//!
//! Every family is checked twice through [`run_cached`] — once cold
//! (explore + certify) and once warm (streaming certificate replay) —
//! and the cached counts and verdicts are compared against a direct
//! [`Explorer::run`] of the same configuration, whose graph must in turn
//! be the independent reference explorer's (`common/reference.rs`).
//! Replay never searches:
//! it re-validates the stored reachable set by membership and closure
//! checking, so a divergence here would mean the certificate format or
//! the structural keying is unsound.
//!
//! The suite consults the cache by default (scratch stores here, the
//! `ANONREG_CACHE_DIR`-driven default store in
//! `cached_suite_uses_the_default_store`); setting `ANONREG_NO_CACHE`
//! forces every run cold — that escape hatch lives in its own test
//! binary (`cache_escape_hatch.rs`) because the variable is
//! process-global.

mod common;

use std::hash::Hash;

use anonreg::baseline::Peterson;
use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_sim::prelude::*;
use anonreg_sim::Simulation;

use common::reference;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// A private per-test store so parallel tests never share keys with a
/// half-written state from another binary.
fn scratch_store(name: &str) -> CacheStore {
    let dir =
        std::env::temp_dir().join(format!("anonreg-incremental-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CacheStore::new(dir).unwrap()
}

/// Cold-then-warm through `store`, parity-checked against a direct
/// uncached exploration of the same configuration.
fn check_cached<M>(
    family: &str,
    store: &CacheStore,
    build: impl Fn() -> Simulation<M>,
    violation: impl Fn(&Simulation<M>) -> bool + Copy + 'static,
) where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let make = || {
        Explorer::new(build()).verdict("safety", move |g: &StateGraph<M>| {
            g.find_state(violation).is_some()
        })
    };
    let cold = run_cached(store, make).unwrap();
    assert!(!cold.warm, "{family}: scratch store had a certificate");
    let warm = run_cached(store, make).unwrap();
    assert!(warm.warm, "{family}: second run did not replay");
    assert_eq!(
        (cold.states, cold.edges),
        (warm.states, warm.edges),
        "{family}: warm replay changed the counts"
    );
    assert_eq!(
        cold.verdicts, warm.verdicts,
        "{family}: warm replay changed a verdict"
    );

    let graph = Explorer::new(build()).run().unwrap();
    reference::assert_matches(
        family,
        &graph,
        &reference::explore(&build(), false, false, SymmetryMode::Off),
    );
    assert_eq!(
        (cold.states, cold.edges),
        (graph.state_count() as u64, graph.edge_count() as u64),
        "{family}: cached counts diverge from a direct exploration"
    );
    assert_eq!(
        cold.verdicts,
        vec![("safety".to_string(), graph.find_state(violation).is_some())],
        "{family}: cached verdict diverges from a direct exploration"
    );
}

/// The ≥2-in-critical-section overlap predicate of the mutex families.
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
fn mutex_cached_verdicts_match_cold() {
    let store = scratch_store("mutex");
    check_cached(
        "mutex",
        &store,
        || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        overlap(AnonMutex::section),
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn ordered_mutex_cached_verdicts_match_cold() {
    let store = scratch_store("ordered");
    check_cached(
        "ordered",
        &store,
        || {
            Simulation::builder()
                .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        overlap(OrderedMutex::section),
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn hybrid_mutex_cached_verdicts_match_cold() {
    let store = scratch_store("hybrid");
    check_cached(
        "hybrid",
        &store,
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
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn peterson_cached_verdicts_match_cold() {
    let store = scratch_store("peterson");
    check_cached(
        "peterson",
        &store,
        || {
            Simulation::builder()
                .process_identity(Peterson::new(pid(1), 0).unwrap())
                .process_identity(Peterson::new(pid(2), 1).unwrap())
                .build()
                .unwrap()
        },
        overlap(Peterson::section),
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn consensus_cached_verdicts_match_cold() {
    let store = scratch_store("consensus");
    check_cached(
        "consensus",
        &store,
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
        |s| {
            let decided: Vec<u64> = s
                .machines()
                .filter(|m| m.has_decided())
                .map(AnonConsensus::preference)
                .collect();
            decided.len() == 2 && decided[0] != decided[1]
        },
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn renaming_cached_verdicts_match_cold() {
    let store = scratch_store("renaming");
    check_cached(
        "renaming",
        &store,
        || {
            Simulation::builder()
                .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |s| s.all_halted() && s.machines().any(|m| !m.has_name()),
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn election_cached_verdicts_match_cold() {
    let store = scratch_store("election");
    check_cached(
        "election",
        &store,
        || {
            Simulation::builder()
                .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |s| s.all_halted() && s.machines().any(|m| !m.has_elected()),
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

/// The default store (`CacheStore::from_env`) works end to end: this is
/// the path the CI cache job exercises with `ANONREG_CACHE_DIR` set.
#[test]
fn cached_suite_uses_the_default_store() {
    let store = CacheStore::from_env();
    let make = || {
        Explorer::new(
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 2))
                .build()
                .unwrap(),
        )
        .verdict("safety", |g: &StateGraph<AnonMutex>| {
            g.find_state(overlap(AnonMutex::section)).is_some()
        })
    };
    // Whatever a previous run left behind, two consecutive runs agree
    // and the second answers from the certificate.
    let first = run_cached(&store, make).unwrap();
    let second = run_cached(&store, make).unwrap();
    assert!(second.warm, "default store did not serve a replay");
    assert_eq!((first.states, first.edges), (second.states, second.edges));
    assert_eq!(first.verdicts, second.verdicts);
    let _ = store.invalidate(make().structural_hash());
}

// ---------------------------------------------------------------------
// Invalidation: anything that can change the verified semantics must
// change the structural key, and a key mismatch must be refused loudly.
// ---------------------------------------------------------------------

#[test]
fn structural_hash_tracks_the_transition_table() {
    let build = |m: usize, cycles: u64| {
        Explorer::new(
            Simulation::builder()
                .process(
                    AnonMutex::new(pid(1), m).unwrap().with_cycles(cycles),
                    View::identity(m),
                )
                .process(
                    AnonMutex::new(pid(2), m).unwrap().with_cycles(cycles),
                    View::rotated(m, 1),
                )
                .build()
                .unwrap(),
        )
    };
    let base = build(3, 1).structural_hash();
    // More registers = a different machine *and* different views.
    assert_ne!(base, build(5, 1).structural_hash());
    // Same registers, more critical-section cycles = a different
    // transition table behind the same interface.
    assert_ne!(base, build(3, 2).structural_hash());
    // Rebuilding the identical configuration reproduces the key.
    assert_eq!(base, build(3, 1).structural_hash());
}

/// `AnonMutex` and `OrderedMutex` share a field layout, so their initial
/// configurations can encode identically — only the machine's type
/// identity in the key separates them. Without it, one family's
/// certificate would replay as the other's verdicts.
#[test]
fn structural_hash_distinguishes_machine_types() {
    let anon = Explorer::new(
        Simulation::builder()
            .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap(),
    )
    .structural_hash();
    let ordered = Explorer::new(
        Simulation::builder()
            .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap(),
    )
    .structural_hash();
    assert_ne!(anon, ordered);
}

/// The registered verdict set is part of the key: a run asking a new or
/// renamed verdict must explore cold, never warm-hit a certificate that
/// recorded different questions.
#[test]
fn structural_hash_tracks_the_verdict_set() {
    let bare = || {
        Explorer::new(
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap(),
        )
    };
    let base = bare().structural_hash();
    let safety = bare()
        .verdict("safety", |_: &StateGraph<AnonMutex>| false)
        .structural_hash();
    let renamed = bare()
        .verdict("liveness", |_: &StateGraph<AnonMutex>| false)
        .structural_hash();
    assert_ne!(base, safety);
    assert_ne!(safety, renamed);
    assert_eq!(
        safety,
        bare()
            .verdict("safety", |_: &StateGraph<AnonMutex>| true)
            .structural_hash()
    );
}

#[test]
fn structural_hash_tracks_limits_and_symmetry() {
    let build = || {
        Explorer::new(
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap(),
        )
    };
    let base = build().structural_hash();
    assert_ne!(base, build().max_states(12_345).structural_hash());
    assert_ne!(base, build().crashes(true).structural_hash());
    assert_ne!(base, build().por(true).structural_hash());
    assert_ne!(
        base,
        build().symmetry(SymmetryMode::Registers).structural_hash()
    );
    // Parallelism never changes the graph, so it must not change the key
    // (a 4-thread run may replay a 1-thread certificate).
    assert_eq!(base, build().parallelism(4).structural_hash());
}

#[test]
fn stale_certificate_is_refused_with_a_clear_error() {
    let store = scratch_store("stale");
    let build = |m: usize| {
        Explorer::new(
            Simulation::builder()
                .process(AnonMutex::new(pid(1), m).unwrap(), View::identity(m))
                .process(AnonMutex::new(pid(2), m).unwrap(), View::rotated(m, 1))
                .build()
                .unwrap(),
        )
    };
    // Certify m = 3, then try to replay it as if it answered m = 5.
    let path = store.path(build(3).structural_hash());
    build(3).certify(&path).run().unwrap();
    let err = build(5).replay_certificate(&path).unwrap_err();
    assert!(
        matches!(err, CertError::Stale { .. }),
        "expected a stale-key refusal, got: {err}"
    );
    let message = err.to_string();
    assert!(
        message.contains("stale certificate") && message.contains("re-run a cold exploration"),
        "unhelpful stale error: {message}"
    );
    let _ = std::fs::remove_dir_all(store.dir());
}

/// `run_cached` degrades a stale certificate to a recomputation: mutate
/// the configuration behind the same path and the driver re-explores
/// instead of erroring.
#[test]
fn run_cached_recovers_from_manual_store_corruption() {
    let store = scratch_store("recover");
    let make = || {
        Explorer::new(
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap(),
        )
    };
    let cold = run_cached(&store, make).unwrap();
    let path = store.path(make().structural_hash());
    // Truncate the certificate mid-file: replay must fail internally and
    // the driver must fall back to a cold run with the right answer.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let recovered = run_cached(&store, make).unwrap();
    assert!(!recovered.warm, "corrupt certificate was replayed");
    assert_eq!(
        (cold.states, cold.edges),
        (recovered.states, recovered.edges)
    );
    let _ = std::fs::remove_dir_all(store.dir());
}
