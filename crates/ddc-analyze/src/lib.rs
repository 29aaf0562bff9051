//! Determinism & protocol static analysis for the TELEPORT reproduction.
//!
//! The whole workspace rests on one invariant — same seed ⇒ identical
//! event trace and digest — and on the pushdown protocol's cross-pool
//! invariants. Both are easy to break silently: a `HashMap` iteration
//! makes observable order hasher-dependent, a trace event nobody emits or
//! asserts guards nothing, a fault spec no poll site reaches is dead
//! fault logic. This crate is a line-based lint engine (no syn, no proc
//! macros — the source conventions of this repo are regular enough for
//! lexical analysis) plus cross-file coverage checks, wired into
//! `cargo run -p ddc-analyze` and the CI `analyze` job, which uploads the
//! SARIF report and gates on any finding.
//!
//! It holds only the rules that need a lexer with a cross-file view. What
//! the toolchain can decide from types, or the program can be asked, is
//! not re-derived here (see *Retired rules*).
//!
//! Every workspace file is read **once** into one shared scan; all
//! rules are fed from it, so analysis cost is one tree walk plus
//! pure in-memory passes (see the `analyze` bench group).
//!
//! ## Rules
//!
//! Each rule has a stable ID used in finding IDs, JSON/SARIF output, and
//! the fixture regression gate in CI.
//!
//! - `DDC002` [`Rule::UnorderedIter`] — no iteration over `HashMap` /
//!   `HashSet` state in the sim-critical crates (`ddc-sim`, `ddc-os`,
//!   `core`, `memdb::oracle`) unless the site carries an explicit
//!   `// analyze:allow(unordered-iter) <reason>` annotation. Lexical on
//!   purpose: `clippy::iter_over_hash_type` sees only `for` loops, this
//!   rule also sees `.keys()` / `.drain(` chains.
//! - `DDC003` [`Rule::DebugAssertProtocol`] — no `debug_assert!` family
//!   on protocol files: a check that guards cross-pool protocol state
//!   must hold in release builds too (promote it to a real check with a
//!   typed error), or carry `// analyze:allow(debug-assert) <reason>`.
//! - `DDC006` [`Rule::FaultKindCoverage`] — every fault label returned
//!   by `fault_label()`, and every `FaultSpec` variant in the injector
//!   (kebab-cased), must appear in `tests/fault_matrix.rs`. A fault kind
//!   nobody sweeps is a fault kind that silently rots.
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
//! - `DDC011` [`Rule::FaultPollCoverage`] — every `FaultSpec` variant
//!   must be handled by a `FaultInjector` poll method that is actually
//!   called from a poll site (net/ssd/kernel/runtime); an injector arm
//!   nobody polls is dead fault logic.
//!
//! ## Retired rules
//!
//! Five IDs are retired and never reused; each guarantee now lives where
//! it is decided from types or from the running program, not from how
//! the source is spelled:
//!
//! - `DDC001` (wall clock) — the root `clippy.toml` disallows
//!   `Instant::now`, `SystemTime::now` and `SystemTime`; the empty
//!   `clippy.toml` files in `crates/bench` and `vendor` are the exemption.
//! - `DDC004` (digest-tag registry) — the `trace_events!` table in
//!   `trace.rs` generates everything that rule compared, so a duplicate
//!   tag, a gap or a missing arm no longer compiles.
//! - `DDC005` / `DDC010` (metric names, metric-doc sync) — the
//!   `metric_table_matches_what_the_scenarios_emit` test in
//!   `tests/digest_pins.rs` asserts that the names the pinned scenarios
//!   emit *equal* the DESIGN.md §6 table; there is no registry module.
//! - `DDC007` (error classification) — `RetryPolicy::covers` and
//!   `FallbackPolicy::covers` deny `clippy::wildcard_enum_match_arm` and
//!   `clippy::match_wildcard_for_single_variants`, so a `_ =>` arm is a
//!   clippy error and an unclassified `PushdownError` variant is `E0004`.
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
    UnorderedIter,
    DebugAssertProtocol,
    FaultKindCoverage,
    TraceTagEmission,
    ClockAccounting,
    FaultPollCoverage,
}

/// Every rule, in stable-ID order. The length of this array is the
/// "rules" element count of the `analyze` bench group.
pub const RULES: [Rule; 6] = [
    Rule::UnorderedIter,
    Rule::DebugAssertProtocol,
    Rule::FaultKindCoverage,
    Rule::TraceTagEmission,
    Rule::ClockAccounting,
    Rule::FaultPollCoverage,
];

impl Rule {
    pub fn label(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::DebugAssertProtocol => "debug-assert-protocol",
            Rule::FaultKindCoverage => "fault-kind-coverage",
            Rule::TraceTagEmission => "trace-tag-emission",
            Rule::ClockAccounting => "clock-accounting",
            Rule::FaultPollCoverage => "fault-poll-coverage",
        }
    }

    /// Stable rule ID used in finding IDs, JSON, and SARIF output.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "DDC002",
            Rule::DebugAssertProtocol => "DDC003",
            Rule::FaultKindCoverage => "DDC006",
            Rule::TraceTagEmission => "DDC008",
            Rule::ClockAccounting => "DDC009",
            Rule::FaultPollCoverage => "DDC011",
        }
    }

    /// One-line statement of the invariant, for SARIF rule metadata and
    /// the DESIGN.md rule table.
    pub fn invariant(self) -> &'static str {
        match self {
            Rule::UnorderedIter => {
                "no HashMap/HashSet iteration in sim-critical code without an allow annotation"
            }
            Rule::DebugAssertProtocol => {
                "no debug_assert on protocol files; protocol checks must hold in release builds"
            }
            Rule::FaultKindCoverage => {
                "every fault label and kebab-cased FaultSpec variant appears in the fault matrix"
            }
            Rule::TraceTagEmission => {
                "every trace_events! row emitted from non-test source and asserted in at least one test; the table readable"
            }
            Rule::ClockAccounting => {
                "no literal latency constant charged into the virtual clock outside the ddc-sim cost models"
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
    /// 1-based line, or 0 for a whole-file finding (an unreadable table).
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
    /// Directories scanned for the clock-accounting rule.
    pub scan_dirs: Vec<PathBuf>,
    /// Directories or files where `HashMap`/`HashSet` iteration is
    /// forbidden without an allow annotation.
    pub sim_critical: Vec<PathBuf>,
    /// Files carrying cross-pool protocol state, where `debug_assert!` is
    /// forbidden without an allow annotation.
    pub protocol_files: Vec<PathBuf>,
    /// The trace schema (`trace.rs`) for the tag-emission and fault-label
    /// checks, or `None` to skip them.
    pub trace_file: Option<PathBuf>,
    /// The fault-matrix test file every fault label must appear in, or
    /// `None` to skip the coverage check.
    pub fault_matrix: Option<PathBuf>,
    /// The injector source defining `enum FaultSpec` and
    /// `impl FaultInjector`, or `None` to skip the fault rules.
    pub fault_specs: Option<PathBuf>,
    /// Directories whose `src` files count as trace-event emission sites.
    pub emit_scan: Vec<PathBuf>,
    /// Directories holding tests whose raw text counts as trace-event
    /// assertion sites (any file under a `tests` component qualifies).
    pub test_scan: Vec<PathBuf>,
    /// Path prefixes exempt from the clock-accounting rule (the costed
    /// charge APIs themselves, and bench setup).
    pub clock_exempt: Vec<PathBuf>,
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
            fault_matrix: Some(p("tests/fault_matrix.rs")),
            fault_specs: Some(p("crates/ddc-sim/src/faults.rs")),
            emit_scan: vec![p("crates")],
            test_scan: vec![p("tests"), p("crates")],
            clock_exempt: vec![p("crates/ddc-sim/src"), p("crates/bench")],
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
    /// under `tests/`). Shared by the analyzer's own tests and the CLI
    /// `--fixture` flag so the CI regression gate and the test suite see
    /// identical findings.
    pub fn fixture(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let p = |s: &str| PathBuf::from(s);
        AnalyzeConfig {
            root,
            scan_dirs: vec![p("src")],
            sim_critical: vec![p("src")],
            protocol_files: vec![p("src/protocol.rs")],
            trace_file: Some(p("src/trace.rs")),
            fault_matrix: Some(p("tests/fault_matrix.rs")),
            fault_specs: Some(p("src/faults.rs")),
            emit_scan: vec![p("src")],
            test_scan: vec![p("tests")],
            clock_exempt: vec![],
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
    /// coverage assertion inside a test module still counts).
    raw: BTreeMap<PathBuf, String>,
}

impl Scan {
    fn load(cfg: &AnalyzeConfig) -> io::Result<Scan> {
        let mut roots: BTreeSet<PathBuf> = BTreeSet::new();
        for group in [
            &cfg.scan_dirs,
            &cfg.sim_critical,
            &cfg.protocol_files,
            &cfg.emit_scan,
            &cfg.test_scan,
            &cfg.fault_poll_files,
        ] {
            roots.extend(group.iter().cloned());
        }
        for single in [&cfg.trace_file, &cfg.fault_matrix, &cfg.fault_specs]
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

/// SARIF 2.1.0 report for CI annotation upload. Line 0 (a whole-file
/// finding) is clamped to 1, the SARIF minimum.
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
        // DDC001 / 004 / 005 / 007 / 010 are retired, not reused: the six
        // rules left keep the numbers they were given.
        assert_eq!(
            RULES.map(Rule::id),
            ["DDC002", "DDC003", "DDC006", "DDC008", "DDC009", "DDC011"]
        );
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
    fn json_escaping_and_rendering() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = Finding {
            rule: Rule::ClockAccounting,
            file: PathBuf::from("src/x.rs"),
            line: 3,
            message: "charge \"500ns\" is a literal".to_string(),
        };
        assert_eq!(f.id(), "DDC009:src/x.rs:3");
        let json = render_json(std::slice::from_ref(&f));
        assert!(json.contains("\"id\":\"DDC009:src/x.rs:3\""));
        assert!(json.contains("\"label\":\"clock-accounting\""));
        let sarif = render_sarif(std::slice::from_ref(&f));
        assert!(sarif.contains("\"ruleId\": \"DDC009\""));
        assert!(sarif.contains("\"startLine\": 3"));
        assert!(render_json(&[]).starts_with("[]"));
    }
}
