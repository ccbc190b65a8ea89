//! Golden digests of one-worker state numbering.
//!
//! At `parallelism(1)` the explorer's state ids are canonical: an
//! instance numbers its states, edges and reconstructed schedules the
//! same way on every run, which is what keeps recorded livelock
//! witnesses and `actions_to` replays stable. The digests below (see
//! `common::reference::digest`) were recorded from the original
//! single-threaded engine on seven instances covering crash transitions,
//! partial-order reduction and register symmetry; the explorer must
//! reproduce them bit for bit.

mod common;

use std::hash::Hash;

use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::AnonMutex;
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, View};
use anonreg_sim::prelude::*;

use common::reference::digest;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

fn mutex() -> Simulation<AnonMutex> {
    Simulation::builder()
        .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap()
}

fn run<M: Machine + Eq + Hash>(explorer: Explorer<'static, M>) -> u64 {
    digest(&explorer.parallelism(1).run().unwrap())
}

/// `(instance, digest)` as recorded from the single-threaded engine.
const GOLDEN: [(&str, u64); 7] = [
    ("mutex", 0xa42a_0332_509b_bc8b),
    ("mutex+crashes", 0x4bef_7abd_3689_0e1e),
    ("ordered+por", 0xc902_4cf9_bff1_aacc),
    ("hybrid", 0xbaf7_a598_cf65_b508),
    ("consensus+por+registers", 0x1040_601c_7184_ef96),
    ("renaming+registers", 0xca03_5d26_3554_223a),
    ("election+crashes", 0x1360_3202_a9c4_1f63),
];

#[test]
fn one_worker_numbering_matches_the_golden_digests() {
    let ordered = Simulation::builder()
        .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap();
    let anon: Vec<usize> = (0..3).map(|j| (j + 1) % 3).collect();
    let hybrid = Simulation::builder()
        .process(
            HybridMutex::new(pid(1), 3).unwrap(),
            named_view(3, (0..3).collect()).unwrap(),
        )
        .process(
            HybridMutex::new(pid(2), 3).unwrap(),
            named_view(3, anon).unwrap(),
        )
        .build()
        .unwrap();
    let consensus = Simulation::builder()
        .process(
            AnonConsensus::new(pid(1), 2, 1).unwrap().with_registers(2),
            View::identity(2),
        )
        .process(
            AnonConsensus::new(pid(2), 2, 2).unwrap().with_registers(2),
            View::rotated(2, 1),
        )
        .build()
        .unwrap();
    let renaming = Simulation::builder()
        .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
        .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap();
    let election = Simulation::builder()
        .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
        .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap();

    let measured = [
        run(Explorer::new(mutex())),
        run(Explorer::new(mutex()).crashes(true)),
        run(Explorer::new(ordered).por(true)),
        run(Explorer::new(hybrid)),
        run(Explorer::new(consensus)
            .por(true)
            .symmetry(SymmetryMode::Registers)),
        run(Explorer::new(renaming).symmetry(SymmetryMode::Registers)),
        run(Explorer::new(election).crashes(true)),
    ];
    let report: Vec<String> = GOLDEN
        .iter()
        .zip(measured)
        .map(|((name, golden), got)| format!("{name}: golden {golden:#018x}, measured {got:#018x}"))
        .collect();
    assert!(
        GOLDEN.iter().zip(measured).all(|((_, g), m)| *g == m),
        "one-worker numbering moved:\n{}",
        report.join("\n")
    );
    // Numbering is a pure function of the instance: a second run agrees.
    assert_eq!(run(Explorer::new(mutex())), measured[0]);
}
