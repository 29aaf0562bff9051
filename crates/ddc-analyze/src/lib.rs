//! Nothing lives here any more. `ddc-analyze` was a lexical lint pass; each of
//! its eleven rules (DDC001–DDC011, IDs retired and never reused) now sits
//! where the toolchain or the running program decides it — DESIGN.md §9 has
//! the table of where each went. The package itself stays, empty and without
//! dependencies, only because `teleport-bench` depends on it by name and
//! `crates/bench/src/bin/rackbench/Cargo.lock`, which program PRs may not
//! touch, records that edge; the next benchmark PR deletes this directory and
//! `teleport-bench`'s dependency line together.
