//! Host-time spans recorded by the benchmark around its calls into the
//! program. Spans live in a `Vec` until the run ends; only then are they
//! written out (Chrome trace-event JSON, which Perfetto opens) and folded
//! into a self-time table. A disabled recorder costs one branch per call,
//! so the timed iterations run through the same code as the traced one.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span called `name` under whichever span is open; returns the
    /// token [`Spans::exit`] closes it with.
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, token: Option<usize>) {
        let Some(id) = token else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let token = self.enter(name);
        let r = f(self);
        self.exit(token);
        r
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of every span called `name` among those recorded
    /// from index `from` on; with a `parent`, only of those directly under a
    /// span of that name.
    pub fn busy_ms(&self, from: usize, parent: Option<&str>, name: &str) -> f64 {
        let ns: u64 = self.spans[from..]
            .iter()
            .filter(|s| {
                s.name == name
                    && parent
                        .is_none_or(|want| s.parent.is_some_and(|p| self.spans[p].name == want))
            })
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }
}

/// Self time of every span: its duration minus the part its children cover.
/// One thread and stack discipline make siblings disjoint, so the covered
/// part is the sum of the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// `(name, calls, total ms, self ms)` per span name, largest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<(String, u64, f64, f64)> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (calls, total, own))| {
            (n.to_string(), calls, total as f64 / 1e6, own as f64 / 1e6)
        })
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        // run[0,100] { setup[0,30] { gen[5,25] }, iter[30,95] { job[40,60], job[60,90] } }
        let tree = vec![
            span("run", 0, None, 0, 100),
            span("setup", 1, Some(0), 0, 30),
            span("gen", 2, Some(1), 5, 25),
            span("iter", 3, Some(0), 30, 95),
            span("job", 4, Some(3), 40, 60),
            span("job", 5, Some(3), 60, 90),
        ];
        let own = self_times_ns(&tree);
        assert_eq!(own, vec![5, 10, 20, 15, 20, 30]);
        assert_eq!(own.iter().sum::<u64>(), tree[0].dur_ns());
        let table = self_time_table(&tree);
        assert_eq!(table[0], ("job".to_string(), 2, 50.0 / 1e6, 50.0 / 1e6));
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut s = Spans::new(true);
        let v = s.span("run", |s| {
            s.span("local", |s| s.span("memdb.q9", |_| 7));
            s.span("local", |s| s.span("memdb.q9", |_| 8))
        });
        assert_eq!(v, 8);
        let all = s.all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[2].parent, Some(1));
        assert!(all.iter().all(|x| x.end_ns >= x.start_ns));
        let under_local = s.busy_ms(0, Some("local"), "memdb.q9");
        assert_eq!(
            under_local,
            (all[2].dur_ns() + all[4].dur_ns()) as f64 / 1e6
        );
        assert_eq!(s.busy_ms(0, None, "memdb.q9"), under_local);
        assert_eq!(s.busy_ms(3, None, "memdb.q9"), all[4].dur_ns() as f64 / 1e6);
        assert_eq!(s.busy_ms(0, Some("run"), "memdb.q9"), 0.0);
        let trace = chrome_trace(all);
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(Json::parse(&trace.render()).unwrap(), trace);

        let mut off = Spans::new(false);
        assert_eq!(off.span("run", |_| 1), 1);
        assert!(off.all().is_empty());
    }
}
