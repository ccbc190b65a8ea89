//! `fp128` over a real reachable set.
//!
//! The explorer's dedup table keys its linear probe on the low half of
//! each state code's [`fp128`], masked to the table size. Over every
//! reachable code of the paper's Fig. 1 mutex at m = 3 (24,548 states)
//! the low halves must all be distinct, and bucketing them by their low
//! 16 bits must look like uniform hashing: at 0.37 codes per bucket, a
//! uniform hash puts 8 or more codes into some bucket with probability
//! below 10⁻³ (Poisson tail × 65,536 buckets), so a heavier bucket means
//! the state codes' structure leaks into the probe key.

use std::collections::HashSet;

use anonreg::mutex::AnonMutex;
use anonreg::{Pid, View};
use anonreg_model::fingerprint::fp128;
use anonreg_sim::prelude::*;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

#[test]
fn fig1_mutex_codes_spread_over_the_probe_key() {
    let graph = Explorer::new(
        Simulation::builder()
            .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap(),
    )
    .run()
    .unwrap();
    let states = graph.state_count();
    assert!(states >= 20_000, "instance too small: {states} states");

    let mut seen = HashSet::with_capacity(states);
    let mut buckets = vec![0u32; 1 << 16];
    for (id, sim) in graph.states() {
        let lo = fp128(&sim.canonical_code(SymmetryMode::Off)).lo;
        assert!(seen.insert(lo), "state {id} repeats a low half {lo:#x}");
        buckets[(lo & 0xffff) as usize] += 1;
    }
    let max_load = buckets.iter().copied().max().unwrap_or(0);
    assert!(
        max_load < 8,
        "{max_load} of {states} codes share one 16-bit probe bucket"
    );
}
