//! Benchmark-side spans around the calls into each layer's public
//! functions.
//!
//! Each load thread owns a [`Recorder`]; spans are held in memory and
//! merged into one [`Trace`] that is written out when the run ends. A
//! span knows its parent and the request it belongs to, so a layer's
//! *self time* — its duration minus what its child spans cover — can be
//! summed per layer. The recorder is also the run's stopwatch: an
//! untraced run takes the same two clock reads per span and keeps
//! nothing, so traced and untraced runs share one code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans written to the trace file; self times always cover every span.
const MAX_SPANS_WRITTEN: usize = 50_000;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to (unique per operation across threads).
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that was entered and not yet left.
#[must_use = "pass it back to Recorder::exit"]
pub struct Open {
    idx: u32,
    start: Instant,
}

/// One thread's span buffer and stopwatch.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    lane: u64,
    requests: u64,
}

impl Recorder {
    /// A recorder for load thread `lane`; `enabled` false keeps no spans.
    pub fn new(epoch: Instant, enabled: bool, lane: u64) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            lane,
            requests: 0,
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next request: spans entered from here on carry its id.
    pub fn next_request(&mut self) {
        self.requests += 1;
    }

    fn request_id(&self) -> u64 {
        (self.lane << 40) | self.requests
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Enter a span nested in the one currently open on this thread.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open {
                idx: NO_PARENT,
                start,
            };
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.since_epoch(start),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request: self.request_id(),
        });
        self.stack.push(idx);
        Open { idx, start }
    }

    /// Leave the innermost span; returns how long it was open.
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if self.enabled {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.idx), "spans must nest");
            self.spans[open.idx as usize].end_ns = self.since_epoch(end);
        }
        end.saturating_duration_since(open.start)
    }

    /// Record an already-measured interval as a child of the open span
    /// (for work timed on another thread, e.g. a worker's finish stamp).
    /// Returns its index for [`Recorder::add_under`].
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.add_under(parent, name, start, end)
    }

    /// As [`Recorder::add`] with an explicit parent span.
    pub fn add_under(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
            parent,
            request: self.request_id(),
        });
        self.spans.len() as u32 - 1
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration minus child durations, nanoseconds.
    pub self_ns: u64,
}

/// The merged spans of one run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Append one thread's spans (parent links are rebased).
    pub fn absorb(&mut self, rec: Recorder) {
        debug_assert!(rec.stack.is_empty(), "recorder absorbed with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Append every load thread's spans.
    pub fn absorb_all(&mut self, recorders: Vec<Recorder>) {
        for rec in recorders {
            self.absorb(rec);
        }
    }

    /// Number of spans held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name self time: a span's duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Summed self time of every span, seconds.
    pub fn total_self_s(&self) -> f64 {
        self.self_times().values().map(|l| l.self_ns).sum::<u64>() as f64 / 1e9
    }

    /// Write the trace as JSON: per-layer self times over every span,
    /// then the spans themselves (the first [`MAX_SPANS_WRITTEN`]).
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{")?;
        writeln!(w, "  \"workload\": \"{workload}\",")?;
        writeln!(w, "  \"span_count\": {},", self.spans.len())?;
        writeln!(w, "  \"self_time\": {{")?;
        let layers = self.self_times();
        for (i, (name, l)) in layers.iter().enumerate() {
            let comma = if i + 1 < layers.len() { "," } else { "" };
            writeln!(
                w,
                "    \"{name}\": {{\"count\": {}, \"self_ms\": {}}}{comma}",
                l.count,
                l.self_ns as f64 / 1e6
            )?;
        }
        writeln!(w, "  }},")?;
        writeln!(w, "  \"spans\": [")?;
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        for (i, s) in self.spans[..written].iter().enumerate() {
            let comma = if i + 1 < written { "," } else { "" };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let trace = Trace {
            spans: vec![
                span("op", 0, 100, NO_PARENT),
                span("engine.run", 10, 70, 0),
                span("plan.replay", 20, 50, 1),
                span("bench.verify", 70, 90, 0),
                span("op", 100, 130, NO_PARENT),
            ],
        };
        let t = trace.self_times();
        assert_eq!(
            t["op"],
            LayerTime {
                count: 2,
                self_ns: 20 + 30
            }
        );
        assert_eq!(
            t["engine.run"],
            LayerTime {
                count: 1,
                self_ns: 30
            }
        );
        assert_eq!(
            t["plan.replay"],
            LayerTime {
                count: 1,
                self_ns: 30
            }
        );
        assert_eq!(
            t["bench.verify"],
            LayerTime {
                count: 1,
                self_ns: 20
            }
        );
        // Self times partition the root spans exactly.
        assert_eq!(trace.total_self_s(), 130.0 / 1e9);
    }

    #[test]
    fn recorder_nests_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, true, 0);
        a.next_request();
        let op = a.enter("op");
        let inner = a.enter("engine.run");
        a.exit(inner);
        a.add("bench.verify", epoch, epoch);
        a.exit(op);
        let mut b = Recorder::new(epoch, true, 1);
        b.next_request();
        let op = b.enter("op");
        let inner = b.enter("engine.run");
        b.exit(inner);
        b.exit(op);

        let mut trace = Trace::default();
        trace.absorb(a);
        trace.absorb(b);
        let parents: Vec<u32> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, NO_PARENT, 3]);
        // Requests differ across lanes even with equal counters.
        assert_ne!(trace.spans[0].request, trace.spans[3].request);
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false, 0);
        let open = r.enter("op");
        std::thread::sleep(Duration::from_millis(2));
        let d = r.exit(open);
        assert!(d >= Duration::from_millis(2));
        let mut trace = Trace::default();
        trace.absorb(r);
        assert_eq!(trace.len(), 0);
    }
}
