//! Determinism & protocol static analysis for the TELEPORT reproduction.
//!
//! The whole workspace rests on one invariant — same seed ⇒ identical
//! event trace and digest — and on the pushdown protocol's cross-pool
//! invariants. Both are easy to break silently: a stray `Instant::now`
//! ties a result to wall time, a `HashMap` iteration makes observable
//! order hasher-dependent, a trace event nobody emits or asserts guards
//! nothing, an unclassified `PushdownError` variant falls into a wildcard
//! arm and silently picks a retry decision nobody reviewed. This crate is
//! a line-based lint engine (no syn, no proc macros — the source
//! conventions of this repo are regular enough for lexical analysis) plus
//! cross-file registry checks, wired into `cargo run -p ddc-analyze` and
//! the CI `analyze` job, which uploads the SARIF report and gates on any
//! finding.
//!
//! Every workspace file is read **once** into one shared scan; all
//! rules are fed from it, so analysis cost is one tree walk plus
//! pure in-memory passes (see the `analyze` bench group).
//!
//! ## Rules
//!
//! Each rule has a stable ID (`DDC001`..`DDC011`) used in finding IDs,
//! JSON/SARIF output, and the fixture regression gate in CI. `DDC004`
//! (digest-tag registry) is retired and its number is not reused: the
//! `trace_events!` table in `trace.rs` generates everything that rule
//! compared, so a duplicate tag, a gap or a missing arm no longer compiles.
//!
//! - `DDC001` [`Rule::WallClock`] — no `Instant::now` / `SystemTime` /
//!   `thread_rng` outside the `bench` crate. Simulated results must
//!   depend only on the seed and the virtual clock.
//! - `DDC002` [`Rule::UnorderedIter`] — no iteration over `HashMap` /
//!   `HashSet` state in the sim-critical crates (`ddc-sim`, `ddc-os`,
//!   `core`, `memdb::oracle`) unless the site carries an explicit
//!   `// analyze:allow(unordered-iter) <reason>` annotation.
//! - `DDC003` [`Rule::DebugAssertProtocol`] — no `debug_assert!` family
//!   on protocol files: a check that guards cross-pool protocol state
//!   must hold in release builds too (promote it to a real check with a
//!   typed error), or carry `// analyze:allow(debug-assert) <reason>`.
//! - `DDC005` [`Rule::MetricName`] — every metric-shaped string literal
//!   (`component.counter` with lowercase snake segments) in non-test
//!   source must appear in the central `metric_names.rs` registry.
//! - `DDC006` [`Rule::FaultKindCoverage`] — every fault label returned
//!   by `fault_label()`, and every `FaultSpec` variant in the injector
//!   (kebab-cased), must appear in `tests/fault_matrix.rs`. A fault kind
//!   nobody sweeps is a fault kind that silently rots.
//! - `DDC007` [`Rule::ErrorClassification`] — every `PushdownError`
//!   variant must be explicitly classified in both `RetryPolicy::covers`
//!   and `FallbackPolicy::covers`; a wildcard `_ =>` arm in a
//!   classification match is itself a finding, because it decides the
//!   fate of future error variants without review.
//! - `DDC008` [`Rule::TraceTagEmission`] — every row of the
//!   `trace_events!` table must be emitted from non-test source and
//!   asserted in at least one golden/matrix test; an event that exists
//!   only in the table protects nothing. A table with no readable row is
//!   itself a finding.
//! - `DDC009` [`Rule::ClockAccounting`] — no literal latency constant
//!   charged straight into the virtual clock (`.advance(SimDuration::
//!   from_nanos(500))`) outside the costed `ddc-sim` charge APIs; all
//!   simulated time must flow through cost models so device parameters
//!   stay tunable in one place.
//! - `DDC010` [`Rule::MetricDocSync`] — the `metric_names.rs` registry,
//!   the generated DESIGN.md metric table, and the actual emission sites
//!   must agree in both directions: registered ⇒ documented and emitted,
//!   documented ⇒ registered. Metric families emitted via `format!`
//!   patterns (`integrity.pool{p}.…`) count as emission sites for every
//!   registered name they can produce.
//! - `DDC011` [`Rule::FaultPollCoverage`] — every `FaultSpec` variant
//!   must be handled by a `FaultInjector` poll method that is actually
//!   called from a poll site (net/ssd/kernel/runtime); an injector arm
//!   nobody polls is dead fault logic.
//!
//! Lines after a `#[cfg(test)]` attribute are not scanned (the repo
//! convention keeps test modules last in a file), and string-literal
//! contents and comments are blanked before code rules match, so a
//! pattern named in a string or a doc comment never trips a rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    WallClock,
    UnorderedIter,
    DebugAssertProtocol,
    MetricName,
    FaultKindCoverage,
    ErrorClassification,
    TraceTagEmission,
    ClockAccounting,
    MetricDocSync,
    FaultPollCoverage,
}

/// Every rule, in stable-ID order. The length of this array is the
/// "rules" element count of the `analyze` bench group.
pub const RULES: [Rule; 10] = [
    Rule::WallClock,
    Rule::UnorderedIter,
    Rule::DebugAssertProtocol,
    Rule::MetricName,
    Rule::FaultKindCoverage,
    Rule::ErrorClassification,
    Rule::TraceTagEmission,
    Rule::ClockAccounting,
    Rule::MetricDocSync,
    Rule::FaultPollCoverage,
];

impl Rule {
    pub fn label(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIter => "unordered-iter",
            Rule::DebugAssertProtocol => "debug-assert-protocol",
            Rule::MetricName => "metric-name",
            Rule::FaultKindCoverage => "fault-kind-coverage",
            Rule::ErrorClassification => "error-classification",
            Rule::TraceTagEmission => "trace-tag-emission",
            Rule::ClockAccounting => "clock-accounting",
            Rule::MetricDocSync => "metric-doc-sync",
            Rule::FaultPollCoverage => "fault-poll-coverage",
        }
    }

    /// Stable rule ID used in finding IDs, JSON, and SARIF output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "DDC001",
            Rule::UnorderedIter => "DDC002",
            Rule::DebugAssertProtocol => "DDC003",
            Rule::MetricName => "DDC005",
            Rule::FaultKindCoverage => "DDC006",
            Rule::ErrorClassification => "DDC007",
            Rule::TraceTagEmission => "DDC008",
            Rule::ClockAccounting => "DDC009",
            Rule::MetricDocSync => "DDC010",
            Rule::FaultPollCoverage => "DDC011",
        }
    }

    /// One-line statement of the invariant, for SARIF rule metadata and
    /// the DESIGN.md rule table.
    pub fn invariant(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "no wall-clock or OS-entropy call outside the bench crate; results depend only on seed and virtual clock"
            }
            Rule::UnorderedIter => {
                "no HashMap/HashSet iteration in sim-critical code without an allow annotation"
            }
            Rule::DebugAssertProtocol => {
                "no debug_assert on protocol files; protocol checks must hold in release builds"
            }
            Rule::MetricName => {
                "every metric-shaped literal in non-test source appears in the metric_names registry"
            }
            Rule::FaultKindCoverage => {
                "every fault label and kebab-cased FaultSpec variant appears in the fault matrix"
            }
            Rule::ErrorClassification => {
                "every PushdownError variant explicitly classified in RetryPolicy and FallbackPolicy; no wildcard arms"
            }
            Rule::TraceTagEmission => {
                "every trace_events! row emitted from non-test source and asserted in at least one test; the table readable"
            }
            Rule::ClockAccounting => {
                "no literal latency constant charged into the virtual clock outside the ddc-sim cost models"
            }
            Rule::MetricDocSync => {
                "metric registry, DESIGN.md metric table, and emission sites agree in both directions"
            }
            Rule::FaultPollCoverage => {
                "every FaultSpec variant handled by an injector poll method called from a net/ssd/kernel/runtime poll site"
            }
        }
    }
}

/// One violation: rule, location, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Path relative to the analysis root.
    pub file: PathBuf,
    /// 1-based line, or 0 for whole-file registry findings.
    pub line: usize,
    pub message: String,
}

impl Finding {
    /// Stable machine-readable ID: `DDCxxx:path:line`. Stable across
    /// runs and across unrelated edits (it does not embed the message),
    /// which is what the CI fixture gate diffs against.
    pub fn id(&self) -> String {
        format!("{}:{}:{}", self.rule.id(), self.file.display(), self.line)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.label(),
            self.message
        )
    }
}

/// What to analyze. [`AnalyzeConfig::workspace`] builds the configuration
/// for this repository; [`AnalyzeConfig::fixture`] points the same engine
/// at a fixture tree shaped like `crates/ddc-analyze/fixtures/bad`.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Root all other paths are relative to.
    pub root: PathBuf,
    /// Directories scanned for the wall-clock and clock-accounting rules.
    pub scan_dirs: Vec<PathBuf>,
    /// Path prefixes exempt from the wall-clock rule (the bench crate
    /// measures real machines and may read real clocks).
    pub wallclock_exempt: Vec<PathBuf>,
    /// Directories or files where `HashMap`/`HashSet` iteration is
    /// forbidden without an allow annotation.
    pub sim_critical: Vec<PathBuf>,
    /// Files carrying cross-pool protocol state, where `debug_assert!` is
    /// forbidden without an allow annotation.
    pub protocol_files: Vec<PathBuf>,
    /// The trace schema (`trace.rs`) for the tag-emission and fault-label
    /// checks, or `None` to skip them.
    pub trace_file: Option<PathBuf>,
    /// The central metric-name registry module, or `None` to skip the
    /// metric checks.
    pub metric_registry: Option<PathBuf>,
    /// Directories scanned for metric-shaped string literals.
    pub metric_scan: Vec<PathBuf>,
    /// The fault-matrix test file every fault label must appear in, or
    /// `None` to skip the coverage check.
    pub fault_matrix: Option<PathBuf>,
    /// The injector source defining `enum FaultSpec` and
    /// `impl FaultInjector`, or `None` to skip the fault rules.
    pub fault_specs: Option<PathBuf>,
    /// The file defining `enum PushdownError`, or `None` to skip the
    /// error-classification rule.
    pub error_enum: Option<PathBuf>,
    /// The file holding `RetryPolicy::covers` and
    /// `FallbackPolicy::covers`, or `None` to skip the rule.
    pub resilience: Option<PathBuf>,
    /// Directories whose `src` files count as trace-event emission sites.
    pub emit_scan: Vec<PathBuf>,
    /// Directories holding tests whose raw text counts as trace-event
    /// assertion sites (any file under a `tests` component qualifies).
    pub test_scan: Vec<PathBuf>,
    /// Path prefixes exempt from the clock-accounting rule (the costed
    /// charge APIs themselves, and bench setup).
    pub clock_exempt: Vec<PathBuf>,
    /// The design document carrying the generated metric table, or
    /// `None` to skip the metric-doc-sync rule.
    pub doc_file: Option<PathBuf>,
    /// Source files that poll the fault injector (net/ssd/kernel/
    /// runtime); every `FaultSpec` variant must be reachable from one.
    pub fault_poll_files: Vec<PathBuf>,
}

impl AnalyzeConfig {
    /// The configuration for this repository, rooted at `root` (the
    /// workspace directory containing `crates/`).
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let p = |s: &str| PathBuf::from(s);
        AnalyzeConfig {
            root,
            scan_dirs: vec![p("crates")],
            wallclock_exempt: vec![p("crates/bench")],
            sim_critical: vec![
                p("crates/ddc-sim/src"),
                p("crates/ddc-os/src"),
                p("crates/core/src"),
                p("crates/memdb/src/oracle.rs"),
                p("crates/kvapp/src"),
            ],
            protocol_files: vec![
                p("crates/core/src/runtime.rs"),
                p("crates/core/src/rpc.rs"),
                p("crates/core/src/fault.rs"),
                p("crates/core/src/coherence.rs"),
                p("crates/core/src/coherence/race.rs"),
                p("crates/core/src/rle.rs"),
                p("crates/core/src/serve.rs"),
                p("crates/ddc-os/src/kernel.rs"),
                p("crates/ddc-os/src/replica.rs"),
                p("crates/ddc-os/src/page.rs"),
                p("crates/ddc-os/src/pool.rs"),
                p("crates/ddc-os/src/fair.rs"),
                p("crates/ddc-os/src/health.rs"),
                p("crates/ddc-os/src/recovery.rs"),
            ],
            trace_file: Some(p("crates/ddc-sim/src/trace.rs")),
            metric_registry: Some(p("crates/ddc-sim/src/metric_names.rs")),
            metric_scan: vec![
                p("crates/ddc-sim/src"),
                p("crates/ddc-os/src"),
                p("crates/core/src"),
            ],
            fault_matrix: Some(p("tests/fault_matrix.rs")),
            fault_specs: Some(p("crates/ddc-sim/src/faults.rs")),
            error_enum: Some(p("crates/core/src/fault.rs")),
            resilience: Some(p("crates/core/src/resilience.rs")),
            emit_scan: vec![p("crates")],
            test_scan: vec![p("tests"), p("crates")],
            clock_exempt: vec![p("crates/ddc-sim/src"), p("crates/bench")],
            doc_file: Some(p("DESIGN.md")),
            fault_poll_files: vec![
                p("crates/ddc-sim/src/net.rs"),
                p("crates/ddc-sim/src/ssd.rs"),
                p("crates/ddc-os/src/kernel.rs"),
                p("crates/core/src/runtime.rs"),
            ],
        }
    }

    /// The configuration for a fixture tree shaped like
    /// `crates/ddc-analyze/fixtures/bad` (sources under `src/`, tests
    /// under `tests/`, docs under `docs/`). Shared by the analyzer's own
    /// tests and the CLI `--fixture` flag so the CI regression gate and
    /// the test suite see identical findings.
    pub fn fixture(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let p = |s: &str| PathBuf::from(s);
        AnalyzeConfig {
            root,
            scan_dirs: vec![p("src")],
            wallclock_exempt: vec![],
            sim_critical: vec![p("src")],
            protocol_files: vec![p("src/protocol.rs")],
            trace_file: Some(p("src/trace.rs")),
            metric_registry: Some(p("src/metric_names.rs")),
            metric_scan: vec![p("src")],
            fault_matrix: Some(p("tests/fault_matrix.rs")),
            fault_specs: Some(p("src/faults.rs")),
            error_enum: Some(p("src/errors.rs")),
            resilience: Some(p("src/resilience.rs")),
            emit_scan: vec![p("src")],
            test_scan: vec![p("tests")],
            clock_exempt: vec![],
            doc_file: Some(p("docs/DESIGN.md")),
            fault_poll_files: vec![p("src/net.rs")],
        }
    }
}

/// Sizes of the shared scan, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub struct ScanStats {
    /// Rust files loaded (each read exactly once).
    pub files: usize,
    /// Pre-`#[cfg(test)]` source lines parsed across those files.
    pub lines: usize,
}

/// Run every configured rule; findings come back sorted by file, line,
/// then rule, so output (and golden expectations) are stable.
pub fn analyze(cfg: &AnalyzeConfig) -> io::Result<Vec<Finding>> {
    analyze_with_stats(cfg).map(|(findings, _)| findings)
}

/// [`analyze`], also reporting how much source the shared scan covered.
pub fn analyze_with_stats(cfg: &AnalyzeConfig) -> io::Result<(Vec<Finding>, ScanStats)> {
    let scan = Scan::load(cfg)?;
    let stats = ScanStats {
        files: scan.files.len(),
        lines: scan.files.values().map(|f| f.lines.len()).sum(),
    };
    let mut findings = Vec::new();
    check_wall_clock(cfg, &scan, &mut findings);
    check_unordered_iter(cfg, &scan, &mut findings);
    check_debug_asserts(cfg, &scan, &mut findings);
    if let Some(trace) = &cfg.trace_file {
        if let Some(matrix) = &cfg.fault_matrix {
            check_fault_coverage(trace, matrix, &scan, &mut findings);
        }
        check_trace_tag_emission(cfg, trace, &scan, &mut findings);
    }
    if let (Some(specs), Some(matrix)) = (&cfg.fault_specs, &cfg.fault_matrix) {
        check_fault_spec_coverage(specs, matrix, &scan, &mut findings);
    }
    if let Some(specs) = &cfg.fault_specs {
        check_fault_poll_coverage(cfg, specs, &scan, &mut findings);
    }
    if let Some(reg) = &cfg.metric_registry {
        check_metric_names(cfg, reg, &scan, &mut findings);
        check_metric_doc_sync(cfg, reg, &scan, &mut findings);
    }
    check_error_classification(cfg, &scan, &mut findings);
    check_clock_accounting(cfg, &scan, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok((findings, stats))
}

// ---------------------------------------------------------------------
// Source model: a file split into lines with code/comment separation
// ---------------------------------------------------------------------

/// One source line, pre-split for the lexical rules.
struct SrcLine {
    /// 1-based line number.
    num: usize,
    /// The raw line, comments intact (annotations live here).
    raw: String,
    /// The line with string-literal contents blanked and comments
    /// removed — what code rules match against.
    code: String,
}

/// A parsed source file. `lines` stops at the first `#[cfg(test)]`
/// (repo convention: test modules close out the file).
struct SrcFile {
    rel: PathBuf,
    lines: Vec<SrcLine>,
}

impl SrcFile {
    fn parse(rel: &Path, text: &str) -> SrcFile {
        let mut lines = Vec::new();
        let mut in_block_comment = false;
        for (i, raw) in text.lines().enumerate() {
            if raw.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = strip_line(raw, &mut in_block_comment);
            lines.push(SrcLine {
                num: i + 1,
                raw: raw.to_string(),
                code,
            });
        }
        SrcFile {
            rel: rel.to_path_buf(),
            lines,
        }
    }
}

/// The shared single-pass scan: every configured file read from disk
/// exactly once, parsed once, then served to all rules from memory.
struct Scan {
    /// Parsed Rust sources, keyed by root-relative path, in sorted
    /// (deterministic) order.
    files: BTreeMap<PathBuf, SrcFile>,
    /// Raw text of every loaded file (tests are matched on raw text so a
    /// coverage assertion inside a test module still counts), plus any
    /// non-Rust documents such as the design doc.
    raw: BTreeMap<PathBuf, String>,
}

impl Scan {
    fn load(cfg: &AnalyzeConfig) -> io::Result<Scan> {
        let mut roots: BTreeSet<PathBuf> = BTreeSet::new();
        for group in [
            &cfg.scan_dirs,
            &cfg.sim_critical,
            &cfg.protocol_files,
            &cfg.metric_scan,
            &cfg.emit_scan,
            &cfg.test_scan,
            &cfg.fault_poll_files,
        ] {
            roots.extend(group.iter().cloned());
        }
        for single in [
            &cfg.trace_file,
            &cfg.metric_registry,
            &cfg.fault_matrix,
            &cfg.fault_specs,
            &cfg.error_enum,
            &cfg.resilience,
        ]
        .into_iter()
        .flatten()
        {
            roots.insert(single.clone());
        }
        let mut scan = Scan {
            files: BTreeMap::new(),
            raw: BTreeMap::new(),
        };
        for root in roots {
            if !cfg.root.join(&root).exists() {
                continue;
            }
            for rel in rust_files(&cfg.root, &root)? {
                if scan.raw.contains_key(&rel) {
                    continue;
                }
                let text = fs::read_to_string(cfg.root.join(&rel))?;
                scan.files.insert(rel.clone(), SrcFile::parse(&rel, &text));
                scan.raw.insert(rel, text);
            }
        }
        if let Some(doc) = &cfg.doc_file {
            if let Ok(text) = fs::read_to_string(cfg.root.join(doc)) {
                scan.raw.insert(doc.clone(), text);
            }
        }
        Ok(scan)
    }

    fn file(&self, rel: &Path) -> Option<&SrcFile> {
        self.files.get(rel)
    }

    /// Parsed files whose path starts with any of `prefixes`.
    fn under<'a>(&'a self, prefixes: &'a [PathBuf]) -> impl Iterator<Item = &'a SrcFile> {
        self.files
            .values()
            .filter(move |f| prefixes.iter().any(|p| f.rel.starts_with(p)))
    }
}

/// Does `rel` live under a `tests` directory component?
fn is_test_path(rel: &Path) -> bool {
    rel.components().any(|c| c.as_os_str() == "tests")
}

/// Does `rel` live under a `src` directory component?
fn is_src_path(rel: &Path) -> bool {
    rel.components().any(|c| c.as_os_str() == "src")
}

/// Blank string-literal contents, drop `//` comments, and honor `/* */`
/// block comments (tracked across lines via `in_block_comment`). Quote
/// characters are kept so the result still "looks like" the code shape.
fn strip_line(raw: &str, in_block_comment: &mut bool) -> String {
    let mut out = String::with_capacity(raw.len());
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0;
    let mut in_string = false;
    while i < chars.len() {
        let c = chars[i];
        if *in_block_comment {
            if c == '*' && chars.get(i + 1) == Some(&'/') {
                *in_block_comment = false;
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        if in_string {
            if c == '\\' {
                i += 2; // skip the escaped character
                continue;
            }
            if c == '"' {
                in_string = false;
                out.push('"');
            }
            i += 1;
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push('"');
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => break,
            '/' if chars.get(i + 1) == Some(&'*') => {
                *in_block_comment = true;
                i += 2;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Does `code` contain `needle` at identifier boundaries on both sides?
fn contains_token(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(off) = code[from..].find(needle) {
        let pos = from + off;
        from = pos + needle.len();
        let left_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap());
        let right_ok = code[pos + needle.len()..]
            .chars()
            .next()
            .map(|c| !is_ident_char(c))
            .unwrap_or(true);
        if left_ok && right_ok {
            return true;
        }
    }
    false
}

/// The identifiers following each occurrence of `prefix` (a path prefix
/// such as `FaultSpec::`) in `code`.
fn path_idents(code: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find(prefix) {
        let pos = from + off;
        from = pos + prefix.len();
        let left_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap());
        if !left_ok {
            continue;
        }
        let ident: String = code[pos + prefix.len()..]
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if !ident.is_empty() {
            out.push(ident);
        }
    }
    out
}

/// All `.rs` files under `root/rel` (or `rel` itself if it is a file),
/// as root-relative paths in sorted order. Directory entries are sorted
/// before descent, so the result does not depend on readdir order.
fn rust_files(root: &Path, rel: &Path) -> io::Result<Vec<PathBuf>> {
    let abs = root.join(rel);
    let mut out = Vec::new();
    if abs.is_file() {
        out.push(rel.to_path_buf());
        return Ok(out);
    }
    let mut stack = vec![rel.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(root.join(&dir))?
            .filter_map(|e| e.ok())
            .map(|e| dir.join(e.file_name()))
            .collect();
        entries.sort();
        for entry in entries {
            let abs = root.join(&entry);
            if abs.is_dir() {
                // Fixture trees hold deliberately-broken sources for the
                // analyzer's own tests; build output is never source.
                let name = entry.file_name().and_then(|n| n.to_str());
                if matches!(name, Some("fixtures") | Some("target")) {
                    continue;
                }
                stack.push(entry);
            } else if entry.extension().is_some_and(|x| x == "rs") {
                out.push(entry);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Does `line` (raw, comments intact) carry a valid
/// `// analyze:allow(<key>) <reason>` annotation? The reason is
/// mandatory: an allow without a why is itself not allowed.
fn has_allow(raw: &str, key: &str) -> bool {
    let marker = format!("analyze:allow({key})");
    match raw.find(&marker) {
        Some(pos) => !raw[pos + marker.len()..].trim().is_empty(),
        None => false,
    }
}

/// A site is exempt if the allow annotation sits on the same line
/// (trailing comment) or on the line directly above.
fn allowed_at(file: &SrcFile, idx: usize, key: &str) -> bool {
    if has_allow(&file.lines[idx].raw, key) {
        return true;
    }
    idx > 0 && has_allow(&file.lines[idx - 1].raw, key)
}

/// The variant identifiers of `enum <name>` — top-level identifiers only
/// (depth 1 inside the enum's braces), so field names of struct variants
/// are never mistaken for variants. Returns `(line, variant)` pairs in
/// declaration order.
fn enum_variants(file: &SrcFile, enum_name: &str) -> Vec<(usize, String)> {
    let needle = format!("enum {enum_name}");
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut inside = false;
    for line in &file.lines {
        if !inside {
            if contains_token(&line.code, &needle) {
                inside = true;
            } else {
                continue;
            }
        }
        if depth == 1 {
            let trimmed = line.code.trim();
            let ident: String = trimmed.chars().take_while(|&c| is_ident_char(c)).collect();
            if trimmed.starts_with(|c: char| c.is_ascii_uppercase()) && !ident.is_empty() {
                variants.push((line.num, ident));
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if inside && depth <= 0 && line.code.contains('}') {
            break;
        }
    }
    variants
}

// ---------------------------------------------------------------------
// Rule DDC001: wall clock
// ---------------------------------------------------------------------

const WALLCLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime", "thread_rng"];

fn check_wall_clock(cfg: &AnalyzeConfig, scan: &Scan, findings: &mut Vec<Finding>) {
    for file in scan.under(&cfg.scan_dirs) {
        if cfg
            .wallclock_exempt
            .iter()
            .any(|ex| file.rel.starts_with(ex))
        {
            continue;
        }
        // Only library/binary source is load-bearing for determinism.
        if !is_src_path(&file.rel) {
            continue;
        }
        for line in &file.lines {
            for pat in WALLCLOCK_PATTERNS {
                if line.code.contains(pat) {
                    findings.push(Finding {
                        rule: Rule::WallClock,
                        file: file.rel.clone(),
                        line: line.num,
                        message: format!(
                            "`{pat}` ties simulated results to wall time; use the virtual clock (or move this into crates/bench)"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC002: unordered iteration
// ---------------------------------------------------------------------

/// Identifiers in `file` declared as `HashMap`/`HashSet` (struct fields,
/// `let` bindings, fn params — anything shaped `name: HashMap<` or
/// `name = HashMap::`).
fn hash_container_idents(file: &SrcFile) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        for decl in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(off) = code[from..].find(decl) {
                let pos = from + off;
                from = pos + decl.len();
                // `name: HashMap<...>` or `name = HashMap::new()`.
                let before = code[..pos].trim_end();
                let before = before
                    .strip_suffix(':')
                    .or_else(|| before.strip_suffix('='))
                    .map(|b| b.trim_end());
                if let Some(b) = before {
                    let ident: String = b
                        .chars()
                        .rev()
                        .take_while(|&c| is_ident_char(c))
                        .collect::<String>()
                        .chars()
                        .rev()
                        .collect();
                    if !ident.is_empty() && !ident.chars().next().unwrap().is_ascii_digit() {
                        idents.insert(ident);
                    }
                }
            }
        }
    }
    idents
}

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
];

/// Is there an occurrence of `ident` at a token boundary in `code`
/// followed immediately by one of the iteration methods, or consumed by a
/// `for ... in` loop?
fn iterates(code: &str, ident: &str) -> bool {
    let is_for = code.trim_start().starts_with("for ");
    let in_pos = code.find(" in ").map(|p| p + 4);
    let mut from = 0;
    while let Some(off) = code[from..].find(ident) {
        let pos = from + off;
        from = pos + ident.len();
        // Token boundary on the left; '.' is fine (field access paths like
        // `self.held` still name the container).
        let prev_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap());
        if !prev_ok {
            continue;
        }
        let rest = &code[pos + ident.len()..];
        if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
            return true;
        }
        // `for x in [&[mut]] [path.]ident {` — the container consumed
        // whole by a for loop.
        if is_for && in_pos.is_some_and(|ip| pos >= ip) {
            let boundary = rest
                .chars()
                .next()
                .map(|c| !is_ident_char(c) && c != '.')
                .unwrap_or(true);
            if boundary {
                return true;
            }
        }
    }
    false
}

fn check_unordered_iter(cfg: &AnalyzeConfig, scan: &Scan, findings: &mut Vec<Finding>) {
    for file in scan.under(&cfg.sim_critical) {
        let idents = hash_container_idents(file);
        if idents.is_empty() {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            for ident in &idents {
                if iterates(&line.code, ident) && !allowed_at(file, idx, "unordered-iter") {
                    findings.push(Finding {
                        rule: Rule::UnorderedIter,
                        file: file.rel.clone(),
                        line: line.num,
                        message: format!(
                            "iteration over hash container `{ident}` is hasher-order-dependent; use BTreeMap/sorted walk or annotate `// analyze:allow(unordered-iter) <reason>`"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC003: debug_assert on protocol paths
// ---------------------------------------------------------------------

fn check_debug_asserts(cfg: &AnalyzeConfig, scan: &Scan, findings: &mut Vec<Finding>) {
    for rel in &cfg.protocol_files {
        let Some(file) = scan.file(rel) else { continue };
        for (idx, line) in file.lines.iter().enumerate() {
            let is_debug_assert = ["debug_assert!(", "debug_assert_eq!(", "debug_assert_ne!("]
                .iter()
                .any(|p| line.code.contains(p));
            if is_debug_assert && !allowed_at(file, idx, "debug-assert") {
                findings.push(Finding {
                    rule: Rule::DebugAssertProtocol,
                    file: file.rel.clone(),
                    line: line.num,
                    message: "debug_assert on a protocol path vanishes in release builds; promote to a real check with a typed error or annotate `// analyze:allow(debug-assert) <reason>`".to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC006: fault-kind coverage
// ---------------------------------------------------------------------

/// The kebab-case labels returned by `fault_label()` in `trace.rs`.
fn parse_fault_labels(file: &SrcFile) -> Vec<(usize, String)> {
    let mut labels = Vec::new();
    let mut depth = 0i32;
    let mut inside = false;
    for line in &file.lines {
        if !inside {
            if line.code.contains("fn fault_label") {
                inside = true;
            } else {
                continue;
            }
        }
        for lit in string_literals(&line.raw) {
            labels.push((line.num, lit));
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if inside && depth <= 0 && line.code.contains('}') {
            break;
        }
    }
    labels
}

fn check_fault_coverage(
    trace_rel: &Path,
    matrix_rel: &Path,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) {
    let Some(trace) = scan.file(trace_rel) else {
        return;
    };
    let labels = parse_fault_labels(trace);
    if labels.is_empty() {
        return;
    }
    let Some(matrix) = scan.raw.get(matrix_rel) else {
        return;
    };
    for (line, label) in labels {
        if !matrix.contains(&label) {
            findings.push(Finding {
                rule: Rule::FaultKindCoverage,
                file: trace_rel.to_path_buf(),
                line,
                message: format!(
                    "fault kind \"{label}\" is never exercised in {}",
                    matrix_rel.display()
                ),
            });
        }
    }
}

/// `CamelCase` → `camel-case` (each uppercase letter opens a segment).
fn kebab_case(ident: &str) -> String {
    let mut out = String::with_capacity(ident.len() + 4);
    for (i, c) in ident.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Every `FaultSpec` variant, kebab-cased, must appear in the fault
/// matrix — the injector half of the coverage rule. `fault_label()`
/// covers *injected* (observed) kinds; this covers the specs themselves,
/// so a plan builder nobody sweeps is flagged even before it ever fires.
fn check_fault_spec_coverage(
    specs_rel: &Path,
    matrix_rel: &Path,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) {
    let Some(specs) = scan.file(specs_rel) else {
        return;
    };
    let variants = enum_variants(specs, "FaultSpec");
    if variants.is_empty() {
        return;
    }
    let Some(matrix) = scan.raw.get(matrix_rel) else {
        return;
    };
    for (line, variant) in variants {
        let label = kebab_case(&variant);
        if !matrix.contains(&label) {
            findings.push(Finding {
                rule: Rule::FaultKindCoverage,
                file: specs_rel.to_path_buf(),
                line,
                message: format!(
                    "FaultSpec::{variant} (\"{label}\") is never exercised in {}",
                    matrix_rel.display()
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC005: metric names
// ---------------------------------------------------------------------

/// The double-quoted string literals of one raw line (escapes honored).
fn string_literals(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0;
    let mut current: Option<String> = None;
    while i < chars.len() {
        let c = chars[i];
        match &mut current {
            Some(s) => {
                if c == '\\' {
                    if let Some(&n) = chars.get(i + 1) {
                        s.push(n);
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    out.push(current.take().unwrap());
                } else {
                    s.push(c);
                }
            }
            None => {
                if c == '"' {
                    current = Some(String::new());
                } else if c == '/' && chars.get(i + 1) == Some(&'/') {
                    break;
                }
            }
        }
        i += 1;
    }
    out
}

/// `component.counter[.sub]`: at least two non-empty lowercase snake-case
/// segments, first character alphabetic.
fn is_metric_shaped(s: &str) -> bool {
    let segments: Vec<&str> = s.split('.').collect();
    if segments.len() < 2 {
        return false;
    }
    if !s
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() && c.is_ascii_alphabetic())
    {
        return false;
    }
    segments.iter().all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// The registry's metric names, with the line each first appears on.
fn registered_metrics(registry: &SrcFile) -> BTreeMap<String, usize> {
    let mut registered = BTreeMap::new();
    for line in &registry.lines {
        for lit in string_literals(&line.raw) {
            if is_metric_shaped(&lit) {
                registered.entry(lit).or_insert(line.num);
            }
        }
    }
    registered
}

fn check_metric_names(
    cfg: &AnalyzeConfig,
    registry_rel: &Path,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) {
    let Some(registry_file) = scan.file(registry_rel) else {
        return;
    };
    let registered = registered_metrics(registry_file);
    if registered.is_empty() {
        findings.push(Finding {
            rule: Rule::MetricName,
            file: registry_rel.to_path_buf(),
            line: 0,
            message: "metric registry contains no metric names".to_string(),
        });
        return;
    }
    for file in scan.under(&cfg.metric_scan) {
        if file.rel == *registry_rel {
            continue;
        }
        for line in &file.lines {
            // Literal extraction works on the raw line, but only for
            // lines that still are code (comments stripped out).
            if line.code.trim().is_empty() {
                continue;
            }
            for lit in string_literals(&line.raw) {
                if is_metric_shaped(&lit) && !registered.contains_key(&lit) {
                    findings.push(Finding {
                        rule: Rule::MetricName,
                        file: file.rel.clone(),
                        line: line.num,
                        message: format!(
                            "metric name \"{lit}\" is not in the central registry ({})",
                            registry_rel.display()
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC007: error classification
// ---------------------------------------------------------------------

/// One `fn covers` body found in the resilience file, attributed to the
/// enclosing `impl` target.
struct CoversBody {
    policy: String,
    /// Line of the `fn covers` signature.
    line: usize,
    /// Error-enum variants explicitly named in the body.
    matched: BTreeSet<String>,
    /// Lines carrying a wildcard `_ =>` arm.
    wildcards: Vec<usize>,
}

/// `impl RetryPolicy {` → `RetryPolicy`; `impl Foo for Bar {` → `Bar`.
fn impl_target(trimmed: &str) -> String {
    let mut rest = trimmed.trim_start_matches("impl").trim_start();
    if rest.starts_with('<') {
        if let Some(end) = rest.find('>') {
            rest = rest[end + 1..].trim_start();
        }
    }
    if let Some(p) = rest.find(" for ") {
        rest = rest[p + 5..].trim_start();
    }
    rest.chars().take_while(|&c| is_ident_char(c)).collect()
}

/// Does `code` contain a standalone `_ =>` match arm (not a `(_)` or
/// struct-field underscore)?
fn is_wildcard_arm(code: &str) -> bool {
    let mut from = 0;
    while let Some(off) = code[from..].find("_ =>") {
        let pos = from + off;
        from = pos + 4;
        let prev = code[..pos].chars().next_back();
        if prev.is_none_or(|c| c.is_whitespace() || c == '|') {
            return true;
        }
    }
    false
}

fn parse_covers_bodies(file: &SrcFile, error_enum: &str) -> Vec<CoversBody> {
    let prefix = format!("{error_enum}::");
    let mut out = Vec::new();
    let mut current_impl = String::new();
    let mut depth = 0i32;
    let mut body: Option<(i32, CoversBody)> = None;
    for line in &file.lines {
        let code = &line.code;
        let trimmed = code.trim_start();
        if body.is_none() && trimmed.starts_with("impl ") {
            current_impl = impl_target(trimmed);
        }
        if body.is_none() && contains_token(code, "fn covers") {
            body = Some((
                depth,
                CoversBody {
                    policy: current_impl.clone(),
                    line: line.num,
                    matched: BTreeSet::new(),
                    wildcards: Vec::new(),
                },
            ));
        }
        if let Some((_, b)) = &mut body {
            for v in path_idents(code, &prefix) {
                b.matched.insert(v);
            }
            if is_wildcard_arm(code) {
                b.wildcards.push(line.num);
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some((entry, _)) = &body {
            if depth <= *entry && code.contains('}') {
                out.push(body.take().unwrap().1);
            }
        }
    }
    out
}

fn check_error_classification(cfg: &AnalyzeConfig, scan: &Scan, findings: &mut Vec<Finding>) {
    let (Some(enum_rel), Some(res_rel)) = (&cfg.error_enum, &cfg.resilience) else {
        return;
    };
    let (Some(enum_file), Some(res_file)) = (scan.file(enum_rel), scan.file(res_rel)) else {
        return;
    };
    let variants = enum_variants(enum_file, "PushdownError");
    if variants.is_empty() {
        findings.push(Finding {
            rule: Rule::ErrorClassification,
            file: enum_rel.to_path_buf(),
            line: 0,
            message: "no `enum PushdownError` variants found — error taxonomy unparseable"
                .to_string(),
        });
        return;
    }
    let bodies = parse_covers_bodies(res_file, "PushdownError");
    for expected in ["RetryPolicy", "FallbackPolicy"] {
        if !bodies.iter().any(|b| b.policy == expected) {
            findings.push(Finding {
                rule: Rule::ErrorClassification,
                file: res_rel.to_path_buf(),
                line: 0,
                message: format!("no `fn covers` body found in `impl {expected}`"),
            });
        }
    }
    for body in &bodies {
        for &w in &body.wildcards {
            findings.push(Finding {
                rule: Rule::ErrorClassification,
                file: res_rel.to_path_buf(),
                line: w,
                message: format!(
                    "wildcard `_ =>` arm in {}::covers silently classifies future PushdownError variants; spell each variant out",
                    body.policy
                ),
            });
        }
        for (_, v) in &variants {
            if !body.matched.contains(v) {
                findings.push(Finding {
                    rule: Rule::ErrorClassification,
                    file: res_rel.to_path_buf(),
                    line: body.line,
                    message: format!(
                        "PushdownError::{v} is not explicitly classified in {}::covers",
                        body.policy
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC008: trace-tag emission
// ---------------------------------------------------------------------

/// The rows of the `trace_events!` table in `trace.rs` — `(line, variant,
/// digest tag)` in table order. A row opens, at depth 1 of the
/// invocation's braces, with its tag and its variant name:
/// `5 PushdownStep { step: u8 } => "trace.pushdown_steps",`.
fn trace_table_rows(file: &SrcFile) -> Vec<(usize, String, u64)> {
    let mut rows = Vec::new();
    let mut depth = 0i32;
    let mut inside = false;
    for line in &file.lines {
        let code = line.code.trim();
        if !inside {
            if !code.starts_with("trace_events! {") {
                continue;
            }
            inside = true;
        } else if depth == 1 {
            let mut words = code.split_whitespace();
            let tag = words.next().and_then(|w| w.parse().ok());
            let variant: String = words
                .next()
                .unwrap_or_default()
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            match tag {
                Some(tag) if variant.starts_with(|c: char| c.is_ascii_uppercase()) => {
                    rows.push((line.num, variant, tag))
                }
                _ => {}
            }
        }
        depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
        if depth <= 0 {
            break;
        }
    }
    rows
}

fn check_trace_tag_emission(
    cfg: &AnalyzeConfig,
    trace_rel: &Path,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) {
    let Some(trace) = scan.file(trace_rel) else {
        return;
    };
    let rows = trace_table_rows(trace);
    if rows.is_empty() {
        findings.push(Finding {
            rule: Rule::TraceTagEmission,
            file: trace_rel.to_path_buf(),
            line: 0,
            message: "no `trace_events!` table row found — trace schema unparseable, so no event's emission or assertion was checked".to_string(),
        });
    }
    for (line, v, tag) in &rows {
        let event_token = format!("TraceEvent::{v}");
        let kind_token = format!("EventKind::{v}");
        let emitted = scan
            .under(&cfg.emit_scan)
            .filter(|f| is_src_path(&f.rel) && !is_test_path(&f.rel) && f.rel != *trace_rel)
            .any(|f| {
                f.lines
                    .iter()
                    .any(|l| contains_token(&l.code, &event_token))
            });
        let asserted = scan
            .raw
            .iter()
            .filter(|(rel, _)| is_test_path(rel))
            .any(|(_, text)| {
                contains_token(text, &event_token) || contains_token(text, &kind_token)
            });
        if !emitted {
            findings.push(Finding {
                rule: Rule::TraceTagEmission,
                file: trace_rel.to_path_buf(),
                line: *line,
                message: format!(
                    "TraceEvent::{v} (digest tag {tag}) is never emitted from non-test source; a tag nobody emits protects nothing"
                ),
            });
        }
        if !asserted {
            findings.push(Finding {
                rule: Rule::TraceTagEmission,
                file: trace_rel.to_path_buf(),
                line: *line,
                message: format!(
                    "TraceEvent::{v} (digest tag {tag}) is never asserted in any golden/matrix test"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC009: clock accounting
// ---------------------------------------------------------------------

/// Does `code` charge a literal latency constant straight into the
/// virtual clock — `.advance(SimDuration::from_<unit>(<digits>` or
/// `.advance_to(SimTime(<digits>`? Computed expressions (cost-model
/// output) do not match: the character after the opening parenthesis
/// must be a digit.
fn literal_clock_charge(code: &str) -> bool {
    let mut from = 0;
    while let Some(off) = code[from..].find(".advance(SimDuration::from_") {
        let pos = from + off + ".advance(SimDuration::from_".len();
        from = pos;
        if let Some(open) = code[pos..].find('(') {
            if code[pos + open + 1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
            {
                return true;
            }
        }
    }
    let mut from = 0;
    while let Some(off) = code[from..].find(".advance_to(SimTime(") {
        let pos = from + off + ".advance_to(SimTime(".len();
        from = pos;
        if code[pos..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit())
        {
            return true;
        }
    }
    false
}

fn check_clock_accounting(cfg: &AnalyzeConfig, scan: &Scan, findings: &mut Vec<Finding>) {
    for file in scan.under(&cfg.scan_dirs) {
        if cfg.clock_exempt.iter().any(|ex| file.rel.starts_with(ex)) {
            continue;
        }
        if !is_src_path(&file.rel) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if literal_clock_charge(&line.code) && !allowed_at(file, idx, "clock-accounting") {
                findings.push(Finding {
                    rule: Rule::ClockAccounting,
                    file: file.rel.clone(),
                    line: line.num,
                    message: "literal latency charged straight into the virtual clock; route it through a ddc-sim cost model (or annotate `// analyze:allow(clock-accounting) <reason>`)".to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC010: metric-doc sync
// ---------------------------------------------------------------------

/// Markers delimiting the generated metric table in the design doc.
pub const METRIC_TABLE_BEGIN: &str = "<!-- ddc-analyze:metric-table:begin -->";
pub const METRIC_TABLE_END: &str = "<!-- ddc-analyze:metric-table:end -->";

/// Replace each `{...}` hole with `x`; `None` if braces are unbalanced.
fn flatten_pattern(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(start) = rest.find('{') {
        out.push_str(&rest[..start]);
        let end = rest[start..].find('}')?;
        out.push('x');
        rest = &rest[start + end + 1..];
        if rest.starts_with('{') && out.ends_with('x') {
            // adjacent holes collapse into one segment wildcard
            continue;
        }
    }
    if rest.contains('}') {
        return None;
    }
    out.push_str(rest);
    Some(out)
}

/// Is `s` a `format!`-style metric pattern — braces whose flattened form
/// is metric-shaped (`integrity.pool{p}.scrub_rounds`)?
fn is_metric_pattern(s: &str) -> bool {
    s.contains('{') && flatten_pattern(s).is_some_and(|f| is_metric_shaped(&f))
}

/// Does one dot-segment of a metric pattern match a concrete segment?
/// `{hole}`s match one or more metric characters.
fn seg_matches(pat: &str, actual: &str) -> bool {
    match pat.find('{') {
        None => pat == actual,
        Some(start) => {
            let Some(end_rel) = pat[start..].find('}') else {
                return false;
            };
            let end = start + end_rel;
            let pre = &pat[..start];
            let Some(rest_actual) = actual.strip_prefix(pre) else {
                return false;
            };
            let rest_pat = &pat[end + 1..];
            for take in 1..=rest_actual.len() {
                if !rest_actual[..take]
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    break;
                }
                if seg_matches(rest_pat, &rest_actual[take..]) {
                    return true;
                }
            }
            false
        }
    }
}

/// Can the `format!` pattern produce the concrete metric name?
fn pattern_matches(pat: &str, name: &str) -> bool {
    let ps: Vec<&str> = pat.split('.').collect();
    let ns: Vec<&str> = name.split('.').collect();
    ps.len() == ns.len() && ps.iter().zip(&ns).all(|(p, n)| seg_matches(p, n))
}

fn check_metric_doc_sync(
    cfg: &AnalyzeConfig,
    registry_rel: &Path,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) {
    let Some(registry_file) = scan.file(registry_rel) else {
        return;
    };
    let registered = registered_metrics(registry_file);
    if registered.is_empty() {
        return; // DDC005 already reports the empty registry.
    }

    // Direction 1+2: registry ↔ design-doc table.
    if let Some(doc_rel) = &cfg.doc_file {
        match scan.raw.get(doc_rel) {
            None => findings.push(Finding {
                rule: Rule::MetricDocSync,
                file: doc_rel.clone(),
                line: 0,
                message: "design doc not found; the metric table cannot be checked".to_string(),
            }),
            Some(text) => {
                let mut in_table = false;
                let mut saw_markers = false;
                let mut documented: BTreeMap<String, usize> = BTreeMap::new();
                for (i, raw) in text.lines().enumerate() {
                    if raw.contains(METRIC_TABLE_BEGIN) {
                        in_table = true;
                        saw_markers = true;
                        continue;
                    }
                    if raw.contains(METRIC_TABLE_END) {
                        in_table = false;
                        continue;
                    }
                    if !in_table {
                        continue;
                    }
                    // Backticked tokens in the table rows.
                    let mut rest = raw;
                    while let Some(start) = rest.find('`') {
                        let Some(end_rel) = rest[start + 1..].find('`') else {
                            break;
                        };
                        let token = &rest[start + 1..start + 1 + end_rel];
                        if is_metric_shaped(token) {
                            documented.entry(token.to_string()).or_insert(i + 1);
                        }
                        rest = &rest[start + 1 + end_rel + 1..];
                    }
                }
                if !saw_markers {
                    findings.push(Finding {
                        rule: Rule::MetricDocSync,
                        file: doc_rel.clone(),
                        line: 0,
                        message: format!(
                            "no generated metric table found (markers `{METRIC_TABLE_BEGIN}` / `{METRIC_TABLE_END}` missing)"
                        ),
                    });
                } else {
                    for (name, &line) in &registered {
                        if !documented.contains_key(name) {
                            findings.push(Finding {
                                rule: Rule::MetricDocSync,
                                file: registry_rel.to_path_buf(),
                                line,
                                message: format!(
                                    "metric \"{name}\" is registered but missing from the {} metric table",
                                    doc_rel.display()
                                ),
                            });
                        }
                    }
                    for (name, &line) in &documented {
                        if !registered.contains_key(name) {
                            findings.push(Finding {
                                rule: Rule::MetricDocSync,
                                file: doc_rel.clone(),
                                line,
                                message: format!(
                                    "metric \"{name}\" is documented in the metric table but not registered in {}",
                                    registry_rel.display()
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // Direction 3: every registered name has an emission site. Literal
    // names count directly; `format!` patterns count for every name they
    // can produce.
    let mut plain: BTreeSet<String> = BTreeSet::new();
    let mut patterns: BTreeSet<String> = BTreeSet::new();
    for file in scan.under(&cfg.metric_scan) {
        if file.rel == *registry_rel {
            continue;
        }
        for line in &file.lines {
            if line.code.trim().is_empty() {
                continue;
            }
            for lit in string_literals(&line.raw) {
                if is_metric_shaped(&lit) {
                    plain.insert(lit);
                } else if is_metric_pattern(&lit) {
                    patterns.insert(lit);
                }
            }
        }
    }
    for (name, &line) in &registered {
        let emitted = plain.contains(name) || patterns.iter().any(|p| pattern_matches(p, name));
        if !emitted {
            findings.push(Finding {
                rule: Rule::MetricDocSync,
                file: registry_rel.to_path_buf(),
                line,
                message: format!(
                    "metric \"{name}\" is registered but never emitted from {}",
                    cfg.metric_scan
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule DDC011: fault-poll coverage
// ---------------------------------------------------------------------

/// The `impl FaultInjector` methods and the `FaultSpec` variants each
/// references, in declaration order.
fn injector_handlers(file: &SrcFile) -> Vec<(String, BTreeSet<String>)> {
    let mut out: Vec<(String, BTreeSet<String>)> = Vec::new();
    let mut depth = 0i32;
    let mut inside = false;
    let mut started = false;
    for line in &file.lines {
        let code = &line.code;
        if !inside {
            if contains_token(code, "impl FaultInjector") {
                inside = true;
            } else {
                continue;
            }
        }
        if started && depth == 1 {
            if let Some(pos) = code.find("fn ") {
                let boundary_ok =
                    pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap());
                if boundary_ok {
                    let name: String = code[pos + 3..]
                        .chars()
                        .take_while(|&c| is_ident_char(c))
                        .collect();
                    if !name.is_empty() {
                        out.push((name, BTreeSet::new()));
                    }
                }
            }
        }
        if let Some((_, set)) = out.last_mut() {
            for v in path_idents(code, "FaultSpec::") {
                set.insert(v);
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if inside && started && depth <= 0 {
            break;
        }
    }
    out
}

fn check_fault_poll_coverage(
    cfg: &AnalyzeConfig,
    specs_rel: &Path,
    scan: &Scan,
    findings: &mut Vec<Finding>,
) {
    if cfg.fault_poll_files.is_empty() {
        return;
    }
    let Some(specs) = scan.file(specs_rel) else {
        return;
    };
    let variants = enum_variants(specs, "FaultSpec");
    if variants.is_empty() {
        return;
    }
    let handlers = injector_handlers(specs);
    // Which handler methods are actually called from a poll site?
    let mut polled: BTreeSet<&str> = BTreeSet::new();
    for rel in &cfg.fault_poll_files {
        let Some(file) = scan.file(rel) else { continue };
        for (fname, _) in &handlers {
            let call = format!(".{fname}(");
            if file.lines.iter().any(|l| l.code.contains(&call)) {
                polled.insert(fname);
            }
        }
    }
    let poll_list = cfg
        .fault_poll_files
        .iter()
        .map(|p| p.display().to_string())
        .collect::<Vec<_>>()
        .join(", ");
    for (line, v) in &variants {
        // Capability predicates (`has_*`) and lifecycle bookkeeping
        // (`retire_*`) reference variants without polling their effect.
        let handling: Vec<&str> = handlers
            .iter()
            .filter(|(f, vars)| {
                !f.starts_with("has_") && !f.starts_with("retire_") && vars.contains(v)
            })
            .map(|(f, _)| f.as_str())
            .collect();
        if handling.is_empty() {
            findings.push(Finding {
                rule: Rule::FaultPollCoverage,
                file: specs_rel.to_path_buf(),
                line: *line,
                message: format!(
                    "FaultSpec::{v} is not handled by any FaultInjector poll method; the spec can never take effect"
                ),
            });
        } else if !handling.iter().any(|f| polled.contains(f)) {
            findings.push(Finding {
                rule: Rule::FaultPollCoverage,
                file: specs_rel.to_path_buf(),
                line: *line,
                message: format!(
                    "FaultSpec::{v} is handled by {} but none is called from a poll site ({poll_list})",
                    handling.join(", ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// One stable finding ID per line — what the CI fixture gate diffs.
pub fn render_ids(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.id());
        out.push('\n');
    }
    out
}

/// Machine-readable JSON array, stable across runs (findings are sorted
/// and the serializer is hand-rolled and deterministic).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"id\":\"{}\",", json_escape(&f.id())));
        out.push_str(&format!("\"rule\":\"{}\",", f.rule.id()));
        out.push_str(&format!("\"label\":\"{}\",", f.rule.label()));
        out.push_str(&format!(
            "\"file\":\"{}\",",
            json_escape(&f.file.display().to_string())
        ));
        out.push_str(&format!("\"line\":{},", f.line));
        out.push_str(&format!("\"message\":\"{}\"", json_escape(&f.message)));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// SARIF 2.1.0 report for CI annotation upload. Line 0 (whole-file
/// registry findings) is clamped to 1, the SARIF minimum.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"ddc-analyze\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str("          \"rules\": [\n");
    for (i, rule) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            rule.id(),
            rule.label(),
            json_escape(rule.invariant()),
            if i + 1 == RULES.len() { "" } else { "," }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"partialFingerprints\": {{\"stableId\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            f.rule.id(),
            json_escape(&f.message),
            json_escape(&f.id()),
            json_escape(&f.file.display().to_string()),
            f.line.max(1),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_strings_and_comments() {
        let mut blk = false;
        assert_eq!(
            strip_line(r#"let x = "Instant::now"; // Instant::now"#, &mut blk),
            r#"let x = ""; "#
        );
        assert!(!blk);
        assert_eq!(strip_line("code(); /* open", &mut blk), "code(); ");
        assert!(blk);
        assert_eq!(strip_line("still */ after", &mut blk), " after");
        assert!(!blk);
    }

    #[test]
    fn kebab_case_splits_on_uppercase() {
        assert_eq!(kebab_case("DegradedPool"), "degraded-pool");
        assert_eq!(kebab_case("LameFabricLink"), "lame-fabric-link");
        assert_eq!(
            kebab_case("PushdownExceptionProb"),
            "pushdown-exception-prob"
        );
        assert_eq!(kebab_case("SsdLatencyStorm"), "ssd-latency-storm");
    }

    #[test]
    fn metric_shape_matches_names_only() {
        assert!(is_metric_shaped("paging.cache_hits"));
        assert!(is_metric_shaped("net.page_in.bytes"));
        assert!(!is_metric_shaped("no_dots"));
        assert!(!is_metric_shaped("Paging.cache"));
        assert!(!is_metric_shaped("paging."));
        assert!(!is_metric_shaped("2fast.2furious"));
        assert!(!is_metric_shaped("has space.x"));
    }

    #[test]
    fn iteration_detection_respects_boundaries() {
        assert!(iterates("for (k, v) in &self.held {", "held"));
        assert!(iterates("self.entries.iter().map(|x| x)", "entries"));
        assert!(iterates("m.drain(..)", "m"));
        assert!(!iterates("withheld.iter()", "held"));
        assert!(!iterates("m2.iter()", "m"));
        assert!(!iterates("for pid in pages_spanned(a, l) {", "pages"));
        assert!(!iterates("held.get(&k)", "held"));
    }

    #[test]
    fn allow_annotation_requires_reason() {
        assert!(has_allow(
            "// analyze:allow(unordered-iter) order documented unspecified",
            "unordered-iter"
        ));
        assert!(!has_allow(
            "// analyze:allow(unordered-iter)",
            "unordered-iter"
        ));
        assert!(!has_allow(
            "// analyze:allow(debug-assert) why",
            "unordered-iter"
        ));
    }

    #[test]
    fn string_literal_extraction() {
        assert_eq!(
            string_literals(r#"m.set("paging.cache_hits", 1); // "not.this""#),
            vec!["paging.cache_hits".to_string()]
        );
        assert_eq!(
            string_literals(r#"let s = "a\"b.c";"#),
            vec![r#"a"b.c"#.to_string()]
        );
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let ids: BTreeSet<&str> = RULES.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), RULES.len());
        assert_eq!(Rule::WallClock.id(), "DDC001");
        assert_eq!(Rule::FaultPollCoverage.id(), "DDC011");
        // DDC004 (digest-tag) is retired, not reused: its neighbours keep
        // their numbers.
        assert!(!ids.contains("DDC004"));
        assert_eq!(Rule::MetricName.id(), "DDC005");
        assert_eq!(Rule::TraceTagEmission.id(), "DDC008");
        let labels: BTreeSet<&str> = RULES.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), RULES.len());
    }

    fn rows_of(text: &str) -> Vec<(usize, String, u64)> {
        trace_table_rows(&SrcFile::parse(Path::new("trace.rs"), text))
    }

    #[test]
    fn table_rows_are_read_past_docs_breaks_and_the_macro_definition() {
        let text = "\
macro_rules! trace_events {
    ($($tag:literal $name:ident { $($f:ident: $t:ty),* } => $m:literal,)+) => {
        pub enum TraceEvent { $($name { $($f: $t),* },)+ }
    };
}
trace_events! {
    /// 9 Lives { of: Cat } in a doc comment is not a row.
    0 Alpha { x: u64 } => \"trace.alphas\",
    1 Beta{ n: u64, flag: bool }
        => \"trace.betas\",
}
const AFTER: [u64; 1] = [2];
";
        assert_eq!(
            rows_of(text),
            vec![(8, "Alpha".to_string(), 0), (9, "Beta".to_string(), 1)]
        );
        assert!(rows_of("pub enum TraceEvent {\n    Alpha { x: u64 },\n}\n").is_empty());
    }

    #[test]
    fn every_row_of_the_workspace_trace_table_is_read() {
        // DDC008 passing on the workspace means nothing if the reader
        // skipped rows: tags count up from 0 and no metric is left over.
        let text = include_str!("../../ddc-sim/src/trace.rs");
        let rows = rows_of(text);
        let tags: Vec<u64> = rows.iter().map(|r| r.2).collect();
        assert_eq!(tags, (0..rows.len() as u64).collect::<Vec<_>>());
        assert!(!rows.is_empty());
        assert_eq!(rows.len(), text.matches("=> \"trace.").count());
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token(
            "let e = TraceEvent::Cancel;",
            "TraceEvent::Cancel"
        ));
        assert!(!contains_token(
            "let e = TraceEvent::CancelDeclined;",
            "TraceEvent::Cancel"
        ));
        assert!(!contains_token(
            "MyTraceEvent::Cancel",
            "TraceEvent::Cancel"
        ));
        assert_eq!(
            path_idents(
                "FaultSpec::PoolDeath | FaultSpec::HeartbeatFlap",
                "FaultSpec::"
            ),
            vec!["PoolDeath".to_string(), "HeartbeatFlap".to_string()]
        );
    }

    #[test]
    fn wildcard_arm_detection() {
        assert!(is_wildcard_arm("            _ => true,"));
        assert!(is_wildcard_arm(
            "PushdownError::Killed { .. } | _ => false,"
        ));
        assert!(!is_wildcard_arm("PushdownError::Exception(_) => true,"));
        assert!(!is_wildcard_arm("Killed { ran_for: _ } => false,"));
        assert!(!is_wildcard_arm("let x_ => nope"));
    }

    #[test]
    fn impl_target_parsing() {
        assert_eq!(impl_target("impl RetryPolicy {"), "RetryPolicy");
        assert_eq!(
            impl_target("impl Default for FallbackPolicy {"),
            "FallbackPolicy"
        );
        assert_eq!(impl_target("impl<T> Wrapper<T> {"), "Wrapper");
    }

    #[test]
    fn literal_clock_charges_only() {
        assert!(literal_clock_charge(
            "clock.advance(SimDuration::from_nanos(500));"
        ));
        assert!(literal_clock_charge("c.advance_to(SimTime(1_000));"));
        assert!(!literal_clock_charge(
            ".advance(SimDuration::from_nanos(floor_ns - spent));"
        ));
        assert!(!literal_clock_charge("clock.advance(cost);"));
        assert!(!literal_clock_charge(".advance_to(SimTime(deadline));"));
    }

    #[test]
    fn metric_patterns_match_families() {
        assert!(is_metric_pattern("integrity.pool{p}.scrub_rounds"));
        assert!(is_metric_pattern("serve.{seg}.completed"));
        assert!(!is_metric_pattern("paging.cache_hits"));
        assert!(!is_metric_pattern("{p} pages lost"));
        assert!(pattern_matches(
            "serve.{seg}.completed",
            "serve.guaranteed.completed"
        ));
        assert!(pattern_matches(
            "integrity.pool{p}.scrub_rounds",
            "integrity.pool3.scrub_rounds"
        ));
        assert!(!pattern_matches("serve.{seg}.completed", "serve.shed"));
        assert!(!pattern_matches(
            "serve.tenant{t}.completed",
            "serve.guaranteed.completed"
        ));
    }

    #[test]
    fn json_escaping_and_rendering() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = Finding {
            rule: Rule::MetricName,
            file: PathBuf::from("src/x.rs"),
            line: 3,
            message: "metric \"a.b\" unknown".to_string(),
        };
        assert_eq!(f.id(), "DDC005:src/x.rs:3");
        let json = render_json(std::slice::from_ref(&f));
        assert!(json.contains("\"id\":\"DDC005:src/x.rs:3\""));
        assert!(json.contains("\"label\":\"metric-name\""));
        let sarif = render_sarif(std::slice::from_ref(&f));
        assert!(sarif.contains("\"ruleId\": \"DDC005\""));
        assert!(sarif.contains("\"startLine\": 3"));
        assert!(render_json(&[]).starts_with("[]"));
    }
}
