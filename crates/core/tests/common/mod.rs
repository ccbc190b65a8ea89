//! Helpers shared by the parity suites.

pub mod reference;
