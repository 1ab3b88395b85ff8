//! `analysis` — the workspace's own static-analysis suite.
//!
//! A dependency-light lint engine that enforces the architectural
//! invariants the ordinary compiler cannot see: panic-free serving,
//! lock-free hot paths, totally-ordered float comparisons, wall-clock
//! confinement to telemetry, span-name agreement with the CI perf-gate
//! baselines, and hash-iteration determinism. Run it as
//!
//! ```text
//! cargo run -p analysis                # text report, exit 1 on deny
//! cargo run -p analysis -- --format json --deny-warnings
//! ```
//!
//! or via the installed binary name, `litsearch-lint`. It scans the
//! workspace's own `.rs` files; a nested package whose `Cargo.toml`
//! declares its own `[workspace]` is a separate workspace and out of
//! scope (see [`engine`]). See
//! [`rules`] for the rule catalogue, [`engine`] for suppression
//! semantics (`// lint:allow(rule-id, reason)`), and [`report`] for
//! the output formats.

pub mod callgraph;
pub mod engine;
pub mod items;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scanner;

pub use engine::{discover_root, lint, LintConfig, Workspace};
pub use report::{Finding, LintReport, Severity};
pub use rules::{all_rules, Rule};
