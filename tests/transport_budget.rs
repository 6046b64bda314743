//! Runs af-server's timing-free transport guard with the root suite, so
//! the syscalls-per-request budget is part of the tier-1 gate.

#[path = "../crates/af-server/tests/transport_budget.rs"]
mod transport_budget;
