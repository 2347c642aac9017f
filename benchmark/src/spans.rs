//! In-memory wall-clock spans around calls into each layer.
//!
//! A [`Recorder`] is either *on* (the traced run: every [`Recorder::span`]
//! appends a record) or *off* (the end-to-end run: `span` just calls the
//! closure), so measured and traced runs execute the same harness code.
//! Spans nest by call structure: the span open when another starts is its
//! parent. Nothing is written until the run ends.

use std::time::Instant;

use crate::json::{num, obj, text, Json};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, named `<layer>.<operation>` (e.g. `ps.push`).
    pub name: &'static str,
    /// The crate/module the call went into (`data`, `sketch`, `core`, `ps`,
    /// `simnet`, `predict`, `serving`), or `harness` for the benchmark's
    /// own grouping spans.
    pub layer: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Simulated worker the call ran for, when it is per-worker work.
    pub worker: Option<u32>,
}

impl Span {
    /// Wall seconds from start to end.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans for one process.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `f` receives the recorder back so it can
    /// open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        worker: Option<u32>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            worker,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far — a cursor for [`Recorder::since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded after `mark` was taken.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }
}

/// Self seconds per span of `spans`: its duration minus the part its
/// direct children cover. Children run one after another on one thread, so
/// their durations simply add up. `base` is the index `spans[0]` has in the
/// recorder (parents are recorder-wide indices).
pub fn self_secs(spans: &[Span], base: usize) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| p.checked_sub(base)) {
            if parent < own.len() {
                own[parent] -= span.secs();
            }
        }
    }
    own
}

/// The descendants of the first span called `root` in `spans` (whose first
/// element has recorder index `base`), excluding the root itself, together
/// with the recorder index of the first descendant. Spans are stored in
/// start order, so a subtree is one contiguous run.
pub fn descendants<'a>(spans: &'a [Span], base: usize, root: &str) -> (&'a [Span], usize) {
    let Some(start) = spans.iter().position(|s| s.name == root) else {
        return (&[], base);
    };
    let root_id = base + start;
    let end = spans[start + 1..]
        .iter()
        .position(|s| s.parent.is_none_or(|p| p < root_id))
        .map_or(spans.len(), |offset| start + 1 + offset);
    (&spans[start + 1..end], root_id + 1)
}

/// Sum of the durations of the spans called `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Self seconds summed per layer, in first-seen order.
pub fn layer_self_secs(spans: &[Span], base: usize) -> Vec<(&'static str, f64)> {
    let own = self_secs(spans, base);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (span, secs) in spans.iter().zip(own) {
        match layers.iter_mut().find(|(layer, _)| *layer == span.layer) {
            Some((_, total)) => *total += secs,
            None => layers.push((span.layer, secs)),
        }
    }
    layers
}

/// Checks the structural invariants of a span list: every span ends no
/// earlier than it starts, lies inside its parent, starts after its parent
/// was opened (parents precede children), and has non-negative self time.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            if p >= i {
                return Err(format!("span {i} ({}) precedes its parent {p}", span.name));
            }
            let parent = &spans[p];
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) is not inside its parent {p} ({})",
                    span.name, parent.name
                ));
            }
        }
    }
    for (i, secs) in self_secs(spans, 0).into_iter().enumerate() {
        // Children are timed with the same clock inside the parent's
        // interval, so this can only fail if spans overlapped.
        if secs < -1e-9 {
            return Err(format!(
                "span {i} ({}) has negative self time {secs}",
                spans[i].name
            ));
        }
    }
    Ok(())
}

/// The `spans.json` document: one record per span, self time included.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_secs(spans, 0);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, own))| {
                obj([
                    ("id", num(id as f64)),
                    ("name", text(s.name)),
                    ("layer", text(s.layer)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("self_ns", num((own * 1e9).round())),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("worker", s.worker.map_or(Json::Null, |w| num(w as f64))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new(true);
        rec.span("outer", "harness", None, |rec| {
            rec.span("a", "ps", Some(0), |_| std::hint::black_box(1 + 1));
            rec.span("a", "ps", Some(1), |_| std::hint::black_box(2 + 2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].worker, Some(1));
        check_well_formed(spans).unwrap();
        let own = self_secs(spans, 0);
        let children = spans[1].secs() + spans[2].secs();
        assert!((own[0] - (spans[0].secs() - children)).abs() < 1e-12);
        assert!((total_secs(spans, "a") - children).abs() < 1e-12);
        let layers = layer_self_secs(spans, 0);
        let sum: f64 = layers.iter().map(|(_, s)| s).sum();
        assert!((sum - spans[0].secs()).abs() < 1e-9);
    }

    #[test]
    fn descendants_are_the_contiguous_subtree() {
        let mut rec = Recorder::new(true);
        rec.span("before", "harness", None, |_| ());
        rec.span("root", "harness", None, |rec| {
            rec.span("a", "ps", None, |rec| {
                rec.span("a.inner", "core", None, |_| ())
            });
            rec.span("b", "core", None, |_| ());
        });
        rec.span("after", "harness", None, |_| ());
        let (sub, base) = descendants(rec.spans(), 0, "root");
        let names: Vec<&str> = sub.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "a.inner", "b"]);
        assert_eq!(base, 2);
        // Layer self times of the subtree add up to its direct children.
        let sum: f64 = layer_self_secs(sub, base).iter().map(|(_, s)| s).sum();
        assert!((sum - (sub[0].secs() + sub[2].secs())).abs() < 1e-9);
        assert!(descendants(rec.spans(), 0, "missing").0.is_empty());
    }

    #[test]
    fn off_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", "core", None, |_| 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let bad = vec![
            Span {
                name: "p",
                layer: "harness",
                start_ns: 10,
                end_ns: 20,
                parent: None,
                worker: None,
            },
            Span {
                name: "c",
                layer: "ps",
                start_ns: 15,
                end_ns: 25,
                parent: Some(0),
                worker: None,
            },
        ];
        assert!(check_well_formed(&bad).is_err());
    }
}
