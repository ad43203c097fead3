//! Umbrella package for the Crescent reproduction's examples and
//! integration tests.
//!
//! The library surface lives in the workspace crates, which `examples/`
//! and `tests/` import directly. This library holds only what those
//! tests share: the adversarial stream-scenario generator
//! ([`testgen`]). It is the one place in the workspace that links
//! proptest outside a dev-dependency, and no library crate depends on
//! this package.

#![warn(missing_docs)]

pub mod testgen;
