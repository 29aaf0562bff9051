//! # mapred — a shared-memory MapReduce on disaggregated memory
//!
//! The Phoenix stand-in of the TELEPORT reproduction (paper §5.3). The
//! input corpus, the reduce buffers, and the final output live in the
//! memory pool; the engine's four phases (map-compute, map-shuffle,
//! reduce, merge) are each a call that can be TELEPORTed — the paper
//! pushes only map-shuffle, which in a DDC accounts for 95% of map time.
//!
//! - [`textgen`] — a Zipf-distributed synthetic comment corpus (stand-in
//!   for the paper's 15 M Reddit comments);
//! - [`engine`] — the phased engine with per-phase measurement and
//!   pushdown plans, whose shuffle prefetches its scattered bucket writes
//!   on the host without moving a simulated access;
//! - [`apps`] — WordCount and Grep with host-memory oracles.

#![deny(unsafe_code)]

pub mod apps;
pub mod engine;
pub mod textgen;

pub use apps::{
    grep_oracle, histogram_oracle, max_len_oracle, wordcount_oracle, Grep, LengthHistogram,
    MaxCommentLength, WordCount,
};
pub use engine::{run, run_with_combiner, LoadedCorpus, MapReduceApp, MrPhase, MrPlan, MrReport};
pub use textgen::Corpus;
