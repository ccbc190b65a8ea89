//! Spans recorded around each call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the instance (or acquire) it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is
//! its spans' durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use anonreg_obs::Json;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call, e.g. `explore` or `run_cached`.
    pub name: &'static str,
    /// The instance (or acquire) this span belongs to.
    pub group: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; `u64::MAX` while open.
    pub end_ns: u64,
}

/// A handle on an open span; pass it back to [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<u32>);

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    thread: u32,
    cap: usize,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            thread: 0,
            cap: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer for `thread`, keeping at most `cap` spans
    /// (later spans are counted in [`Tracer::dropped`]).
    #[must_use]
    pub fn on(epoch: Instant, thread: u32, cap: usize) -> Self {
        Tracer {
            epoch,
            enabled: true,
            thread,
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
            .expect("run shorter than 584 years")
    }

    /// Opens a span named `name` for `group`, nested in the innermost
    /// open span.
    pub fn enter(&mut self, name: &'static str, group: u64) -> Open {
        self.enter_at(name, group, Instant::now())
    }

    /// [`Tracer::enter`] with a start measured earlier, so recording the
    /// span adds nothing to the interval it covers.
    pub fn enter_at(&mut self, name: &'static str, group: u64, start: Instant) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(None);
        }
        let index = u32::try_from(self.spans.len()).expect("span cap fits in u32");
        self.spans.push(Span {
            name,
            group,
            parent: self.stack.last().copied(),
            start_ns: self.since_epoch(start),
            end_ns: u64::MAX,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        self.exit_at(open, Instant::now());
    }

    /// [`Tracer::exit`] with an end measured earlier.
    pub fn exit_at(&mut self, open: Open, end: Instant) {
        let Some(index) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index as usize].end_ns = self.since_epoch(end);
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        let open = self.enter_at(name, group, start);
        self.exit_at(open, end);
    }

    /// Spans that did not fit under the cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether this tracer records spans.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// How many more spans fit under the cap; unlimited when disabled,
    /// since nothing is recorded.
    #[must_use]
    pub fn room(&self) -> usize {
        if self.enabled {
            self.cap - self.spans.len()
        } else {
            usize::MAX
        }
    }

    /// Forgets the recorded spans, keeping their storage.
    pub fn clear(&mut self) {
        debug_assert!(self.stack.is_empty(), "no span is open");
        self.spans.clear();
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The thread index this tracer was created for.
    #[must_use]
    pub fn thread(&self) -> u32 {
        self.thread
    }
}

/// Per-name totals derived from a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children cover.
    pub self_ns: u64,
}

/// Self and total time per span name over closed spans.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur(s);
        t.self_ns += dur(s).saturating_sub(children);
    }
    out
}

/// The total time of the spans named `root`, and how much of it the
/// spans named in `layers` cover. A layer span counts when some ancestor
/// is a `root` span and none is another layer span, so nested layer
/// calls are not counted twice.
#[must_use]
pub fn coverage(spans: &[Span], root: &str, layers: &[&str]) -> (u64, u64) {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    // Parents precede their children, so one forward pass sees every
    // ancestor first.
    let mut under_root = vec![false; spans.len()];
    let mut under_layer = vec![false; spans.len()];
    let (mut root_ns, mut covered_ns) = (0, 0);
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.map(|p| p as usize) {
            under_root[i] = under_root[p] || spans[p].name == root;
            under_layer[i] = under_layer[p] || layers.contains(&spans[p].name);
        }
        if s.name == root {
            root_ns += dur(s);
        } else if under_root[i] && !under_layer[i] && layers.contains(&s.name) {
            covered_ns += dur(s);
        }
    }
    (root_ns, covered_ns)
}

/// Writes every tracer's spans to `path` as JSON Lines, after a header
/// line carrying the run stamp. Parent indices are made global by
/// offsetting each tracer's spans.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, stamp: &Json, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let dropped: u64 = tracers.iter().map(|t| t.dropped()).sum();
    writeln!(
        out,
        "{}",
        Json::obj(vec![
            ("record", Json::Str("trace".into())),
            ("stamp", stamp.clone()),
            ("dropped_spans", Json::U64(dropped)),
        ])
        .render()
    )?;
    let mut base = 0u64;
    for tracer in tracers {
        for (i, s) in tracer.spans().iter().enumerate() {
            let line = Json::obj(vec![
                ("span", Json::U64(base + i as u64)),
                ("name", Json::Str(s.name.into())),
                ("group", Json::U64(s.group)),
                ("thread", Json::U64(u64::from(tracer.thread()))),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Null, |p| Json::U64(base + u64::from(p))),
                ),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        base += tracer.spans().len() as u64;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "verify",
                group: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "explore",
                group: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                name: "safety",
                group: 1,
                parent: Some(0),
                start_ns: 70,
                end_ns: 90,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["verify"].self_ns, 20);
        assert_eq!(t["explore"].self_ns, 60);
        assert_eq!(t["safety"].total_ns, 20);
    }

    #[test]
    fn coverage_counts_only_layer_spans_inside_the_root() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span("pass", None, 0, 100),
            // A wrapper of the benchmark's own: not a layer.
            span("verify", Some(0), 0, 90),
            span("explore", Some(1), 10, 50),
            // Nested in a layer span: already covered.
            span("safety", Some(2), 20, 30),
            span("safety", Some(1), 50, 70),
            // Outside any pass.
            span("explore", None, 200, 300),
        ];
        let layers = ["explore", "safety"];
        assert_eq!(coverage(&spans, "pass", &layers), (100, 60));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_cap_counts_drops() {
        let mut off = Tracer::off();
        let open = off.enter("x", 0);
        off.exit(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::on(Instant::now(), 0, 2);
        let outer = on.enter("outer", 7);
        let inner = on.enter("inner", 7);
        let third = on.enter("third", 7);
        on.exit(third);
        on.exit(inner);
        on.exit(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.dropped(), 1);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
