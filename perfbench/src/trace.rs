//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer (a crate): name `"<crate>.<call>"`, start, end, parent span and
//! operation id. They stay in memory and are written out when the run
//! ends. With tracing off every call is one branch and records nothing, so
//! the end-to-end numbers come from runs with the recorder off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts operation `op`: spans opened until the next call belong to it.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
    }

    /// Closes spans an operation left open when it failed part-way.
    pub fn close_open(&mut self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Drops every span recorded so far (used after the warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: a span's duration minus the
    /// part its children cover. Root spans whose name starts with `twin.`
    /// (work done beside an operation) are kept apart by their prefix.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// The per-layer self-time table: layer (the span-name prefix) →
    /// self milliseconds per operation, over `ops` operations.
    pub fn layer_table(&self, ops: u64) -> BTreeMap<String, f64> {
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (name, (ns, _)) in self.self_times() {
            if name.starts_with("twin.") {
                continue;
            }
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *layers.entry(layer).or_insert(0.0) += ns as f64 / 1e6;
        }
        for v in layers.values_mut() {
            *v = if ops == 0 { 0.0 } else { *v / ops as f64 };
        }
        layers
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }

    /// Cost of one enter/exit pair on this machine, in nanoseconds,
    /// measured on a scratch recorder.
    pub fn calibrate_span_ns() -> f64 {
        const N: u32 = 200_000;
        let mut t = Tracer::new(true);
        let start = Instant::now();
        for i in 0..N {
            t.set_op(i);
            let s = t.enter("calibrate.outer");
            let c = t.enter("calibrate.inner");
            t.exit(c);
            t.exit(s);
        }
        start.elapsed().as_nanos() as f64 / (2 * N) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_op(1);
        let root = t.enter("bench.op");
        let child = t.enter("smoqe.compile");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let st = t.self_times();
        let (child_ns, _) = st["smoqe.compile"];
        let (root_ns, _) = st["bench.op"];
        assert!(child_ns >= 2_000_000);
        assert!(
            root_ns < child_ns,
            "the root's self time excludes its child"
        );
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("bench.op");
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
