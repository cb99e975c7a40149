//! In-memory span tracing around the calls the benchmark makes into each
//! layer's public API.
//!
//! A span records its name, start, end, parent span and the segment
//! sequence number it serves (the request id). Spans stay in memory and
//! are written out once the run ends. A span's *self time* is its
//! duration minus the time its child spans cover; children never overlap
//! (every traced workload loop is single-threaded at its span boundaries), so
//! the self times of all spans under a root add back up to the root's
//! duration.

use adaedge_datasets::SegmentSource;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel span id returned while tracing is off.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `"spool.append"`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Segment sequence number the call served.
    pub seq: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder that is either on or off. Off, every call is one
/// branch, so traced and untraced passes run the same workload code.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Trace {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, seq: u64) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            seq,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Time `f` as a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, seq: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, seq);
        let out = f();
        self.exit(id);
        out
    }

    /// Add spans timed elsewhere against this trace's origin (see
    /// [`FillSource`]) as children of the innermost open span.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        self.spans
            .extend(spans.into_iter().map(|s| Span { parent, ..s }));
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in ns: its duration minus its children's.
    /// Signed so a broken nesting shows up as a negative value.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p as usize] -= s.dur_ns() as i64;
            }
        }
        out
    }

    /// Check the accounting invariant: no self time is negative, and the
    /// self times under each root span add up to the root's duration.
    pub fn check_self_times(&self) -> Result<(), String> {
        let own = self.self_times_ns();
        if let Some((i, t)) = own.iter().enumerate().find(|(_, &t)| t < 0) {
            return Err(format!(
                "span {i} ({}) has self time {t} ns",
                self.spans[i].name
            ));
        }
        // Parents open before their children, so one forward pass finds
        // every span's root.
        let mut root = vec![0usize; self.spans.len()];
        let mut total: BTreeMap<usize, i64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = s.parent.map_or(i, |p| root[p as usize]);
            *total.entry(root[i]).or_default() += own[i];
        }
        for (r, sum) in total {
            let dur = self.spans[r].dur_ns() as i64;
            if sum != dur {
                return Err(format!(
                    "self times under root {r} ({}) sum to {sum} ns, root lasted {dur} ns",
                    self.spans[r].name
                ));
            }
        }
        Ok(())
    }

    /// Durations (ns) of every span, grouped by name.
    pub fn durations_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.dur_ns() as f64);
        }
        out
    }

    /// Total self time (ns) per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, i64> {
        let mut out: BTreeMap<&'static str, i64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_default() += t;
        }
        out
    }

    /// Write the spans as one JSON document: `header` (a JSON object
    /// body, without braces) followed by a `spans` array.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{{header},\n\"spans\": [")?;
        let self_ns = self.self_times_ns();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"seq\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.seq,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// The benchmark's own [`SegmentSource`] wrapper around a source. With a
/// sink attached, every fill is recorded as a `datasets.fill` span against
/// `origin`; the sink is shared so sources moved into the fleet still
/// report back.
pub struct FillSource<S: SegmentSource> {
    inner: S,
    sink: Option<(Instant, Arc<Mutex<Vec<Span>>>)>,
    seq: u64,
}

impl<S: SegmentSource> FillSource<S> {
    /// Wrap `inner`; `sink` (origin + span buffer) turns tracing on.
    pub fn new(inner: S, sink: Option<(Instant, Arc<Mutex<Vec<Span>>>)>) -> Self {
        Self {
            inner,
            sink,
            seq: 0,
        }
    }
}

impl<S: SegmentSource> SegmentSource for FillSource<S> {
    fn segment_len(&self) -> usize {
        self.inner.segment_len()
    }

    fn next_segment(&mut self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.segment_len());
        self.next_segment_into(&mut out);
        out
    }

    fn next_segment_into(&mut self, out: &mut Vec<f64>) {
        self.seq += 1;
        let Some((origin, sink)) = &self.sink else {
            self.inner.next_segment_into(out);
            return;
        };
        let start = origin.elapsed().as_nanos() as u64;
        self.inner.next_segment_into(out);
        let end = origin.elapsed().as_nanos() as u64;
        sink.lock()
            .expect("fill sink poisoned by a panicking producer")
            .push(Span {
                name: "datasets.fill",
                start_ns: start,
                end_ns: end,
                parent: None,
                seq: self.seq,
            });
    }
}

/// Take every span out of a shared fill sink.
pub fn drain_sink(sink: &Arc<Mutex<Vec<Span>>>) -> Vec<Span> {
    std::mem::take(
        &mut *sink
            .lock()
            .expect("fill sink poisoned by a panicking producer"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Trace::on();
        let root = t.enter("root", 0);
        for seq in 0..5 {
            t.span("child", seq, || {
                std::hint::black_box((0..1000).sum::<u64>());
            });
        }
        t.exit(root);
        let own = t.self_times_ns();
        assert!(own.iter().all(|&x| x >= 0));
        assert_eq!(own.iter().sum::<i64>() as u64, t.spans()[0].dur_ns());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Trace::off();
        let id = t.enter("x", 1);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
