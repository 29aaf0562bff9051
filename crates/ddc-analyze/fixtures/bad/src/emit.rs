// Fixture emission sites: Alpha and Beta are emitted from non-test
// source; Gamma exists only in the table and is never emitted
// (violation caught by trace-tag-emission).

pub fn emit(sink: &mut Vec<TraceEvent>) {
    sink.push(TraceEvent::Alpha { x: 1 });
    sink.push(TraceEvent::Beta { n: 2 });
}
