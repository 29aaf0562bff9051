// Fixture golden test: asserts Alpha and Gamma events; Beta is emitted
// by src/emit.rs but never asserted in any test (violation caught by
// trace-tag-emission).

#[test]
fn golden_digest() {
    let a = TraceEvent::Alpha { x: 7 };
    let g = TraceEvent::Gamma {
        y: 9,
        wide: true,
    };
    assert_digest(&[a, g]);
}
