//! The expected verdict of every instance the benchmark runs, written
//! down by hand from the theorem that fixes it.
//!
//! Nothing here is computed by the model checker: a run whose checker
//! disagrees with this table counts as failed. A verdict no theorem fixes
//! is left unpinned; it is still computed (it costs analysis time) and
//! still compared between cold and warm passes, but not against a table.

/// One property of an instance, as the benchmark names it. `true` in a
/// verdict list means the property holds.
pub type Verdicts = Vec<(&'static str, bool)>;

/// What the oracle is keyed by: the shape of an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Fig. 1 mutex for two processes over `m` registers. `ring_shift`
    /// is the second view's rotation relative to the first when both
    /// views are rotations (the ring of T3.4's proof), `None` otherwise.
    Mutex {
        /// Register count.
        m: usize,
        /// Relative rotation of the two views, when they form a ring.
        ring_shift: Option<usize>,
    },
    /// Fig. 2 consensus.
    Consensus {
        /// Processes.
        n: usize,
        /// Anonymous registers.
        registers: usize,
    },
    /// §4 election (consensus on identifiers).
    Election {
        /// Processes.
        n: usize,
        /// Anonymous registers.
        registers: usize,
    },
    /// Fig. 3 adaptive perfect renaming.
    Renaming {
        /// Processes.
        n: usize,
        /// Anonymous registers.
        registers: usize,
    },
    /// One of the seven instances of experiment E20 (`check
    /// verify-cache`), by family name.
    Family(&'static str),
}

/// A verdict the table fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// Verdict name.
    pub verdict: &'static str,
    /// Whether the property must hold.
    pub holds: bool,
    /// The result that fixes it.
    pub cite: &'static str,
}

/// Everything the table says about one shape.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    /// Verdicts fixed one by one.
    pub pins: Vec<Pin>,
    /// Verdicts that cannot all hold (an impossibility result that
    /// says some property fails without saying which), with its cite.
    pub not_all: Option<(&'static [&'static str], &'static str)>,
}

fn pin(verdict: &'static str, holds: bool, cite: &'static str) -> Pin {
    Pin {
        verdict,
        holds,
        cite,
    }
}

/// The hand-written table.
#[must_use]
pub fn expected(shape: Shape) -> Expected {
    let pins = |pins: Vec<Pin>| Expected {
        pins,
        not_all: None,
    };
    match shape {
        Shape::Mutex { m: 1, .. } => pins(vec![pin(
            "mutual_exclusion",
            false,
            "T6.2 covering run (m = 1 is below T3.1's m >= 2)",
        )]),
        Shape::Mutex { m, .. } if m % 2 == 1 => pins(vec![
            pin("mutual_exclusion", true, "T3.2"),
            pin("deadlock_freedom", true, "T3.3"),
        ]),
        Shape::Mutex { m, ring_shift } => {
            let mut p = vec![pin(
                "mutual_exclusion",
                true,
                "T3.2 (the exclusion argument does not use parity)",
            )];
            if ring_shift == Some(m / 2) {
                p.push(pin(
                    "deadlock_freedom",
                    false,
                    "T3.1 (even m: the ring adversary at spacing m/2 livelocks)",
                ));
            }
            pins(p)
        }
        Shape::Consensus { n, registers } if registers >= 2 * n - 1 => pins(vec![
            pin("agreement", true, "T4.1"),
            pin("validity", true, "T4.2"),
            pin("obstruction_freedom", true, "T4.1"),
        ]),
        Shape::Election { n, registers } if registers >= 2 * n - 1 => pins(vec![
            pin("agreement", true, "T4.1 via the section 4 reduction"),
            pin(
                "obstruction_freedom",
                true,
                "T4.1 via the section 4 reduction",
            ),
        ]),
        Shape::Consensus { n, registers } | Shape::Election { n, registers } if registers < n => {
            Expected {
                pins: Vec::new(),
                not_all: Some((
                    &["agreement", "obstruction_freedom"],
                    "T6.3 (n - 1 registers)",
                )),
            }
        }
        Shape::Renaming { n, registers } if registers >= 2 * n - 1 => pins(vec![
            pin("uniqueness_range", true, "T5.2 and T5.3"),
            pin("obstruction_freedom", true, "T5.1"),
        ]),
        Shape::Renaming { n, registers } if registers < n => Expected {
            pins: Vec::new(),
            not_all: Some((
                &["uniqueness_range", "obstruction_freedom"],
                "T6.5 (n - 1 registers)",
            )),
        },
        Shape::Family("mutex") => pins(vec![pin(
            "mutual_exclusion",
            true,
            "T3.2 (m = 2 ring, one entry each)",
        )]),
        Shape::Family("ordered") => pins(vec![pin(
            "mutual_exclusion",
            true,
            "E13 ordered-comparison mutex, m = 3",
        )]),
        Shape::Family("hybrid") => pins(vec![pin(
            "mutual_exclusion",
            true,
            "E11 hybrid mutex, 3 anonymous + 1 named",
        )]),
        Shape::Family("peterson") => pins(vec![pin(
            "mutual_exclusion",
            true,
            "Peterson's algorithm over agreed names",
        )]),
        Shape::Family("renaming") => pins(vec![pin("all_named", true, "T5.1")]),
        Shape::Family("election") => pins(vec![pin(
            "all_elected",
            true,
            "T4.1 via the section 4 reduction",
        )]),
        // Between n - 1 and 2n - 2 registers no theorem fixes a verdict
        // (this includes E20's consensus, n = 2 over 2 registers).
        Shape::Consensus { .. }
        | Shape::Election { .. }
        | Shape::Renaming { .. }
        | Shape::Family(_) => Expected::default(),
    }
}

/// Checks `verdicts` against the table.
///
/// # Errors
///
/// A description of the first disagreement, or of a pinned verdict the
/// run did not compute.
pub fn check(shape: Shape, verdicts: &[(&str, bool)]) -> Result<(), String> {
    let get = |name: &str| {
        verdicts
            .iter()
            .find(|(v, _)| *v == name)
            .map(|&(_, holds)| holds)
            .ok_or_else(|| format!("{shape:?}: verdict {name} was not computed"))
    };
    let expected = expected(shape);
    for p in &expected.pins {
        let holds = get(p.verdict)?;
        if holds != p.holds {
            return Err(format!(
                "{shape:?}: {} {} but {} says it {}",
                p.verdict,
                if holds { "holds" } else { "fails" },
                p.cite,
                if p.holds { "holds" } else { "fails" },
            ));
        }
    }
    if let Some((names, cite)) = expected.not_all {
        let mut all = true;
        for name in names {
            all &= get(name)?;
        }
        if all {
            return Err(format!(
                "{shape:?}: {names:?} all hold, but {cite} forbids it"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E1's prediction for `m`, aggregated from the table over every
    /// rotation of the second view the way E1 aggregates its runs.
    fn parity_prediction(m: usize) -> &'static str {
        let mut safe = true;
        let mut live = true;
        for shift in 0..m {
            let e = expected(Shape::Mutex {
                m,
                ring_shift: Some(shift),
            });
            for p in &e.pins {
                match (p.verdict, p.holds) {
                    ("mutual_exclusion", false) => safe = false,
                    ("deadlock_freedom", false) => live = false,
                    _ => {}
                }
            }
        }
        match (safe, live) {
            (false, _) => "unsafe",
            (true, false) => "livelock",
            (true, true) => "safe+live",
        }
    }

    #[test]
    fn table_agrees_with_e1_parity_predictions() {
        let rows = anonreg_bench::e1_parity::rows(5);
        assert_eq!(rows.len(), 5);
        for row in rows {
            assert_eq!(parity_prediction(row.m), row.expected, "m = {}", row.m);
        }
    }

    #[test]
    fn flipped_pins_and_joint_violations_are_caught() {
        let shape = Shape::Mutex {
            m: 3,
            ring_shift: None,
        };
        let good = vec![("mutual_exclusion", true), ("deadlock_freedom", true)];
        assert_eq!(check(shape, &good), Ok(()));
        let flipped = vec![("mutual_exclusion", false), ("deadlock_freedom", true)];
        assert!(check(shape, &flipped).unwrap_err().contains("T3.2"));
        assert!(check(shape, &good[..1]).is_err(), "missing verdict passed");

        let t63 = Shape::Consensus { n: 2, registers: 1 };
        let both = vec![("agreement", true), ("obstruction_freedom", true)];
        assert!(check(t63, &both).unwrap_err().contains("T6.3"));
        let one_fails = vec![("agreement", false), ("obstruction_freedom", true)];
        assert_eq!(check(t63, &one_fails), Ok(()));
    }

    #[test]
    fn unpinned_shapes_accept_anything() {
        let e20_consensus = Shape::Family("consensus");
        assert_eq!(expected(e20_consensus), Expected::default());
        assert_eq!(check(e20_consensus, &[("agreement", false)]), Ok(()));
        let off_ring = Shape::Mutex {
            m: 2,
            ring_shift: Some(0),
        };
        assert_eq!(expected(off_ring).pins.len(), 1);
    }
}
