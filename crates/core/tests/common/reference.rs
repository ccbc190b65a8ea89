//! An independent reference explorer for the engine parity suites.
//!
//! A deliberately plain breadth-first search over the public
//! `Simulation` API — `step`, `crash`, `is_halted` and `canonical_code` —
//! with a `HashMap` keyed by canonical code and its own ample-set rule
//! for partial-order reduction. It shares no code with the explorer
//! engine, so agreement between the two is evidence rather than a
//! tautology. The `anonreg-sim` unit tests include this file too.

#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use anonreg_model::{Machine, PidMap, SymmetryMode};
use anonreg_sim::explore::{ScheduleAction, StateGraph};
use anonreg_sim::{Simulation, StepOutcome};

/// One transition of a [`RefGraph`]; `events` is the `Debug` rendering
/// of the events the step emitted.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RefEdge {
    pub proc: usize,
    pub target: usize,
    pub crash: bool,
    pub events: String,
}

/// The reachable graph as the reference explorer sees it: one canonical
/// code and one outgoing edge list per state, in discovery order.
pub struct RefGraph {
    pub mode: SymmetryMode,
    pub codes: Vec<Box<[u8]>>,
    pub edges: Vec<Vec<RefEdge>>,
}

impl RefGraph {
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Explores every configuration reachable from `initial`, deduplicating
/// by `canonical_code(mode)`. With `crashes` every live process may also
/// crash; with `por`, a state where some live process's step is an event
/// or a halt keeps only those steps.
pub fn explore<M>(initial: &Simulation<M>, crashes: bool, por: bool, mode: SymmetryMode) -> RefGraph
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let first = initial.canonical_code(mode);
    let mut ids: HashMap<Box<[u8]>, usize> = HashMap::from([(first.clone(), 0)]);
    let mut graph = RefGraph {
        mode,
        codes: vec![first],
        edges: Vec::new(),
    };
    let mut queue = VecDeque::from([initial.clone()]);
    while let Some(state) = queue.pop_front() {
        // (process, crash, successor, events, register-free step)
        let mut successors = Vec::new();
        for proc in 0..state.process_count() {
            if state.is_halted(proc) {
                continue;
            }
            let mut next = state.clone();
            let before = next.trace().events().count();
            let outcome = next.step(proc).expect("a live process can step");
            let events: Vec<&M::Event> = next
                .trace()
                .events()
                .skip(before)
                .map(|(_, _, e)| e)
                .collect();
            let events = format!("{events:?}");
            let local = matches!(outcome, StepOutcome::Event | StepOutcome::Halted);
            successors.push((proc, false, next, events, local));
            if crashes {
                let mut crashed = state.clone();
                crashed.crash(proc).expect("the slot exists");
                successors.push((proc, true, crashed, "[]".to_string(), false));
            }
        }
        if por && successors.iter().any(|s| s.4) {
            successors.retain(|s| s.4);
        }
        let mut out = Vec::with_capacity(successors.len());
        for (proc, crash, next, events, _) in successors {
            let code = next.canonical_code(mode);
            let target = match ids.get(&code) {
                Some(&id) => id,
                None => {
                    let id = graph.codes.len();
                    ids.insert(code.clone(), id);
                    graph.codes.push(code);
                    queue.push_back(next);
                    id
                }
            };
            out.push(RefEdge {
                proc,
                target,
                crash,
                events,
            });
        }
        graph.edges.push(out);
    }
    graph
}

/// Asserts that `graph` is `reference` up to state numbering: the same
/// canonical state set and, per state, the same multiset of
/// `(process, target, crash, events)` transitions. Under
/// `SymmetryMode::Full` process slots are renamed along with identifiers,
/// so only the state set and the edge count are compared.
pub fn assert_matches<M>(label: &str, graph: &StateGraph<M>, reference: &RefGraph)
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    assert_eq!(
        graph.state_count(),
        reference.codes.len(),
        "{label}: state count differs from the reference"
    );
    assert_eq!(
        graph.edge_count(),
        reference.edge_count(),
        "{label}: edge count differs from the reference"
    );
    let index: HashMap<&[u8], usize> = reference
        .codes
        .iter()
        .enumerate()
        .map(|(id, code)| (&**code, id))
        .collect();
    let mut seen = vec![false; reference.codes.len()];
    let to_ref: Vec<usize> = graph
        .states()
        .map(|(id, state)| {
            let code = state.canonical_code(reference.mode);
            let rid = *index
                .get(&*code)
                .unwrap_or_else(|| panic!("{label}: state {id} is not reachable in the reference"));
            assert!(!seen[rid], "{label}: state {id} is stored twice");
            seen[rid] = true;
            rid
        })
        .collect();
    assert_eq!(to_ref[0], 0, "{label}: initial states differ");
    if reference.mode == SymmetryMode::Full {
        return;
    }
    for (id, _) in graph.states() {
        let mut ours: Vec<RefEdge> = graph
            .edges(id)
            .iter()
            .map(|e| RefEdge {
                proc: e.proc,
                target: to_ref[e.target],
                crash: e.crash,
                events: format!("{:?}", e.events),
            })
            .collect();
        let mut theirs = reference.edges[to_ref[id]].clone();
        ours.sort();
        theirs.sort();
        assert_eq!(ours, theirs, "{label}: edges differ at state {id}");
    }
}

/// A 64-bit FNV-1a digest of everything a one-worker run numbers: each
/// state id with its configuration fingerprint, its edges (process,
/// target, crash flag, events) and its `actions_to` schedule.
pub fn digest<M>(graph: &StateGraph<M>) -> u64
where
    M: Machine + Eq + Hash,
{
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, state) in graph.states() {
        feed(&(id as u64).to_le_bytes());
        feed(&state.fingerprint().to_le_bytes());
        for e in graph.edges(id) {
            feed(&(e.proc as u64).to_le_bytes());
            feed(&(e.target as u64).to_le_bytes());
            feed(&[u8::from(e.crash)]);
            feed(format!("{:?}", e.events).as_bytes());
        }
        for action in graph.actions_to(id) {
            let (kind, proc) = match action {
                ScheduleAction::Step(proc) => (0u8, proc),
                ScheduleAction::Crash(proc) => (1, proc),
            };
            feed(&[kind]);
            feed(&(proc as u64).to_le_bytes());
        }
    }
    hash
}
