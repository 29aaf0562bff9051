// Fixture: the trace schema in table form (never compiled, only lexed).
// Seeded violations, both caught by trace-tag-emission:
//   - Beta is emitted by src/emit.rs but asserted in no test
//   - Gamma is asserted by tests/trace_golden.rs but never emitted
// Alpha is emitted and asserted and stays silent. The metric name on each
// row is a placeholder (no rule reads it; the real table's names are
// checked by tests/digest_pins.rs). Plus a fault_label() whose
// "beta-fault" never appears in the matrix.

trace_events! {
    /// Emitted and asserted.
    0 Alpha { x: u64 } => "fixture.good_metric",
    /// Emitted, never asserted.
    1 Beta { n: u64 } => "fixture.good_metric",
    /// Asserted, never emitted; a row may break before its metric.
    2 Gamma { y: u64, wide: bool }
        => "fixture.good_metric",
}

pub fn fault_label(k: usize) -> &'static str {
    match k {
        0 => "alpha-fault",
        _ => "beta-fault",
    }
}
