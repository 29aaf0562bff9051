//! The analyzer against two trees: the seeded-violation fixtures (every
//! planted bug must be flagged, every annotated site must stay silent)
//! and the real workspace (which must be clean).

use std::path::{Path, PathBuf};

use ddc_analyze::{analyze, AnalyzeConfig, Finding, Rule};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad")
}

fn fixture_config() -> AnalyzeConfig {
    AnalyzeConfig::fixture(fixture_root())
}

fn fixture_findings() -> Vec<Finding> {
    analyze(&fixture_config()).expect("fixture analysis runs")
}

fn of_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn flags_unannotated_hash_iteration_only() {
    let all = fixture_findings();
    let hits = of_rule(&all, Rule::UnorderedIter);
    // The raw `counts.iter()` loop and the reason-less annotation; the
    // properly annotated `counts.keys()` site stays silent.
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert!(hits.iter().all(|f| f.file == Path::new("src/unordered.rs")));
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert!(
        !lines.contains(&20),
        "annotated site must not be flagged: {hits:#?}"
    );
}

#[test]
fn flags_protocol_debug_assert_only() {
    let all = fixture_findings();
    let hits = of_rule(&all, Rule::DebugAssertProtocol);
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert_eq!(hits[0].file, PathBuf::from("src/protocol.rs"));
    assert_eq!(hits[0].line, 6);
}

#[test]
fn flags_uncovered_fault_kind_only() {
    let all = fixture_findings();
    let hits = of_rule(&all, Rule::FaultKindCoverage);
    // One uncovered injected-fault label, two uncovered FaultSpec
    // variants; the covered "alpha-fault" stays silent on both halves.
    assert_eq!(hits.len(), 3, "{hits:#?}");
    assert!(hits
        .iter()
        .any(|f| f.message.contains("beta-fault") && f.file == Path::new("src/trace.rs")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("FaultSpec::GammaGrind")
            && f.message.contains("gamma-grind")
            && f.file == Path::new("src/faults.rs")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("FaultSpec::DeltaCrashRestart")
            && f.message.contains("delta-crash-restart")
            && f.file == Path::new("src/faults.rs")));
}

#[test]
fn flags_unemitted_and_unasserted_trace_tags() {
    let all = fixture_findings();
    let hits = of_rule(&all, Rule::TraceTagEmission);
    // Beta is emitted but never asserted; Gamma is asserted but never
    // emitted; Alpha (emitted by src/emit.rs, asserted by
    // tests/trace_golden.rs) stays silent.
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert!(hits.iter().all(|f| f.file == Path::new("src/trace.rs")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("TraceEvent::Beta") && f.message.contains("asserted")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("TraceEvent::Gamma") && f.message.contains("emitted")));
    assert_eq!(
        hits.iter().map(|f| f.id()).collect::<Vec<_>>(),
        vec!["DDC008:src/trace.rs:14", "DDC008:src/trace.rs:16"]
    );
}

#[test]
fn reports_a_trace_table_it_cannot_read() {
    // A schema written as a plain enum has no rows to check; the rule
    // must say so instead of passing with nothing checked.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/unreadable");
    let all = analyze(&AnalyzeConfig::fixture(root)).expect("fixture analysis runs");
    assert_eq!(
        all.iter().map(|f| f.id()).collect::<Vec<_>>(),
        vec!["DDC008:src/trace.rs:0"]
    );
    assert!(all[0].message.contains("unparseable"), "{}", all[0]);
}

#[test]
fn flags_literal_clock_charges_only() {
    let all = fixture_findings();
    let hits = of_rule(&all, Rule::ClockAccounting);
    // Two literal charges; the annotated site and the computed charge
    // stay silent.
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert!(hits
        .iter()
        .all(|f| f.file == Path::new("src/clockcharge.rs")));
    assert_eq!(
        hits.iter().map(|f| f.id()).collect::<Vec<_>>(),
        vec![
            "DDC009:src/clockcharge.rs:6",
            "DDC009:src/clockcharge.rs:10",
        ]
    );
}

#[test]
fn flags_unpolled_fault_specs() {
    let all = fixture_findings();
    let hits = of_rule(&all, Rule::FaultPollCoverage);
    // GammaGrind has a handler nobody polls; DeltaCrashRestart has no
    // handler at all; AlphaFault (polled from src/net.rs) stays silent.
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert!(hits.iter().all(|f| f.file == Path::new("src/faults.rs")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("FaultSpec::GammaGrind")
            && f.message.contains("gamma_factor")
            && f.message.contains("poll site")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("FaultSpec::DeltaCrashRestart")
            && f.message.contains("not handled")));
    assert_eq!(
        hits.iter().map(|f| f.id()).collect::<Vec<_>>(),
        vec!["DDC011:src/faults.rs:17", "DDC011:src/faults.rs:20"]
    );
}

#[test]
fn fixture_ids_match_committed_expectations() {
    // The same golden file the CI regression gate diffs against:
    // fixtures/expected_ids.txt pins every seeded violation by stable ID.
    let expected = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/expected_ids.txt"),
    )
    .expect("fixtures/expected_ids.txt is committed");
    let got = ddc_analyze::render_ids(&fixture_findings());
    assert_eq!(
        got, expected,
        "fixture findings drifted from fixtures/expected_ids.txt; \
         regenerate with `cargo run -p ddc-analyze -- --fixture \
         --root crates/ddc-analyze/fixtures/bad --format ids`"
    );
}

#[test]
fn machine_formats_are_stable_across_runs() {
    let first = fixture_findings();
    let second = fixture_findings();
    assert_eq!(
        ddc_analyze::render_json(&first),
        ddc_analyze::render_json(&second)
    );
    assert_eq!(
        ddc_analyze::render_sarif(&first),
        ddc_analyze::render_sarif(&second)
    );
    let json = ddc_analyze::render_json(&first);
    assert!(json.contains("\"rule\":\"DDC011\""));
    let sarif = ddc_analyze::render_sarif(&first);
    // Every rule is declared in the SARIF driver metadata.
    for rule in ddc_analyze::RULES {
        assert!(
            sarif.contains(rule.id()),
            "{} missing from SARIF",
            rule.id()
        );
    }
    // SARIF regions never report line 0 (whole-file findings clamp to 1).
    assert!(!sarif.contains("\"startLine\": 0"));
}

#[test]
fn findings_are_sorted_and_printable() {
    let all = fixture_findings();
    let mut sorted = all.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    assert_eq!(all, sorted);
    for f in &all {
        let s = f.to_string();
        assert!(s.contains(':'), "{s}");
    }
}

#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let cfg = AnalyzeConfig::workspace(root);
    let findings = analyze(&cfg).expect("workspace analysis runs");
    assert!(
        findings.is_empty(),
        "the workspace must pass its own analysis:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
