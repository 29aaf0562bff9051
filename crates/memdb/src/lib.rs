//! # memdb — a columnar in-memory DBMS on disaggregated memory
//!
//! The MonetDB stand-in of the TELEPORT reproduction (paper §5.1): a
//! columnar engine with operator-at-a-time execution whose every memory
//! access is metered by the disaggregated OS, and whose operators can be
//! selectively pushed to the memory pool with a single wrapped call.
//!
//! - [`types`] — dates, dictionaries, packed part names;
//! - [`tpch`] — a schema-faithful TPC-H generator;
//! - [`db`] — loading columns into simulated (remote) memory;
//! - [`exec`] — selection, projection, aggregation, hash/merge join,
//!   expressions, sort;
//! - [`queries`] — `Q_filter`, Q3, Q6, Q9 as instrumented physical plans;
//! - [`report`] — per-operator measurements, their §7.4 intensity ranking,
//!   and [`report::PushdownPlan`], `teleport`'s shared [`teleport::Plan`]
//!   over operator names (none, top-k, auto by the 80 K RM/s rule, or all);
//! - [`oracle`] — host-memory reference evaluation for validation;
//! - [`dist`] — the distributed-DBMS cost model behind Fig 1b's
//!   SparkSQL/Vertica reference points.

#![deny(unsafe_code)]

pub mod db;
pub mod dist;
pub mod exec;
pub mod oracle;
pub mod queries;
pub mod queries_ext;
pub mod report;
pub mod tpch;
pub mod types;

pub use db::Database;
pub use queries::{q1, q3, q6, q9, q_filter, Q3Row, Q9Row, QueryParams};
pub use queries_ext::{q10, q12, q4, q5, ExtParams, Q10Row};
pub use report::{OpReport, PushdownPlan, QueryReport};
pub use tpch::TpchData;
pub use types::{Date, Dictionary};
