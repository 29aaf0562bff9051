// Fixture: a trace schema the analyzer cannot read — the events are
// written out as a plain enum instead of `trace_events!` rows. The
// tag-emission rule must say so itself (one whole-file finding) rather
// than pass with nothing checked.

pub enum TraceEvent {
    Alpha { x: u64 },
    Beta { n: u64 },
}

impl TraceEvent {
    fn digest_words(&self) -> [u64; 3] {
        match *self {
            TraceEvent::Alpha { x } => [0, x, 0],
            TraceEvent::Beta { n } => [1, n, 0],
        }
    }
}
