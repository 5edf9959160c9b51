//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name (`layer.call`), start and end, its parent span
//! and a call id shared by the spans of one driver operation. Per-op calls
//! that would flood memory (point writes and reads) are aggregated per
//! name instead of stored one by one. Self time is a span's duration minus
//! the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the parent span, [`u32::MAX`] for a root.
    pub parent: u32,
    /// Driver operation the span belongs to.
    pub call: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans (or aggregated calls) of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    aggregated: BTreeMap<&'static str, Totals>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregated: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for driver operation `call`.
    pub fn span<T>(&mut self, name: &'static str, call: u64, f: impl FnOnce() -> T) -> T {
        self.scope(name, call, |_| f())
    }

    /// Like [`span`](Self::span) for a scope whose children are recorded by
    /// the closure through the tracer it is handed.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        call: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            call,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end = self.now();
        out
    }

    /// Record one aggregated call of `name` lasting `ns` (no stored span,
    /// no children).
    pub fn aggregate(&mut self, name: &'static str, ns: u64) {
        let t = self.aggregated.entry(name).or_default();
        t.count += 1;
        t.total_ns += ns;
        t.self_ns += ns;
    }

    /// Stored spans plus aggregated calls.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.aggregated.values().map(|t| t.count).sum::<u64>()
    }

    /// Per-name totals over stored and aggregated spans, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push(i as u32);
            }
        }
        let mut out = self.aggregated.clone();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c as usize];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .collect();
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered(&mut kids));
        }
        out
    }

    /// Total seconds of spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9)
    }

    /// Every span as one JSON object per line, then one line per name with
    /// its totals.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"call\":{}}}\n",
                s.name, s.start, s.end, parent, s.call
            ));
        }
        for (name, t) in self.totals() {
            out.push_str(&format!(
                "{{\"totals\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}\n",
                name, t.count, t.total_ns, t.self_ns
            ));
        }
        out
    }
}

/// Length of the union of `[start, end)` intervals.
fn covered(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_intervals() {
        assert_eq!(covered(&mut []), 0);
        assert_eq!(covered(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(&mut [(3, 3), (4, 2)]), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.scope("core.parent", 1, |tr| {
            tr.span("exec.child", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        tr.aggregate("core.write", 700);
        tr.aggregate("core.write", 300);
        let t = tr.totals();
        let parent = t["core.parent"];
        let child = t["exec.child"];
        assert_eq!(parent.count, 1);
        assert!(child.total_ns >= 5_000_000);
        assert_eq!(parent.self_ns, parent.total_ns - child.total_ns);
        assert_eq!((t["core.write"].count, t["core.write"].total_ns), (2, 1000));
        assert_eq!(tr.span_count(), 4);
        assert!(tr.to_jsonl().contains("\"parent\":0"));
    }
}
