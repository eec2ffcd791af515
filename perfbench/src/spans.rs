//! In-memory spans recorded by the benchmark around each call into a layer's
//! public function. Self times are computed from them by `run.py`.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: its layer name, interval (ns since the round began),
/// the span that caused it and the operation it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// A per-thread span recorder. Spans nest: a span entered while another is
/// open becomes its child.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = self.now_ns();
    }

    pub fn time<T>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let result = call();
        self.exit();
        result
    }

    /// Moves this recorder's spans into `all`.
    pub fn drain_into(&mut self, all: &mut Vec<Span>) {
        assert!(self.open.is_empty(), "draining a recorder with open spans");
        append(all, self.spans.drain(..));
    }
}

/// Appends a self-contained set of spans to `all`, re-basing parent indices.
pub fn append(all: &mut Vec<Span>, spans: impl IntoIterator<Item = Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut span| {
        span.parent = span.parent.map(|parent| parent + base);
        span
    }));
}

/// Spans as a JSON array of `[name, start_ns, end_ns, parent, op]`, with
/// `-1` for no parent.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (index, span) in spans.iter().enumerate() {
        let sep = if index == 0 { "" } else { "," };
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{sep}[\"{}\",{},{},{parent},{}]",
            span.name, span.start_ns, span.end_ns, span.op
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorders_nest_and_rebase_parents() {
        let epoch = Instant::now();
        let mut all = Vec::new();
        let mut first = Recorder::new(epoch);
        first.time("solo", 1, || ());
        first.drain_into(&mut all);
        let mut second = Recorder::new(epoch);
        second.enter("op", 7);
        second.time("leaf", 7, || ());
        second.exit();
        second.drain_into(&mut all);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[2].parent, Some(1));
        assert!(all[1].start_ns <= all[2].start_ns && all[2].end_ns <= all[1].end_ns);
        let json = to_json(&all[..1]);
        assert!(json.starts_with("[[\"solo\","), "{json}");
        assert!(json.ends_with(",-1,1]]"), "{json}");
    }
}
