//! In-memory spans for the traced run: one per call into a layer, with the
//! counts taken at the same boundary, written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The probe-grid cell the call served (`gcc/tuned`), or the probe
    /// group for calls outside the grid (`micro/isa`).
    pub cell: String,
    /// Crate name, or `harness` for the root and cell spans.
    pub layer: &'static str,
    /// The function called (`Sdt::run`).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at this boundary (`instrs`, `events`, …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("cell", Json::str(&self.cell)),
            ("layer", Json::str(self.layer)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            (
                "counts",
                Json::obj(self.counts.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ])
    }
}

/// Records spans against one clock. Disabled, it records nothing and
/// costs a branch per call — the "tracing off" side of the overhead
/// measurement.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
    cell: String,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: String::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the cell that spans opened from now on belong to.
    pub fn set_cell(&mut self, cell: impl Into<String>) {
        if self.enabled {
            self.cell = cell.into();
        }
    }

    /// Opens a span that stays open until the matching [`Recorder::exit`];
    /// spans opened meanwhile become its children.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            cell: self.cell.clone(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, attaching `counts` to it.
    pub fn exit(&mut self, counts: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.counts.extend_from_slice(counts);
    }

    /// Times one call into a layer as a leaf span. `counts` reads the
    /// work done off the call's result.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
        counts: impl FnOnce(&T) -> Vec<(&'static str, f64)>,
    ) -> T {
        if !self.enabled {
            return f();
        }
        self.enter(layer, name);
        let value = f();
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("span opened above");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.counts = counts(&value);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("strata-perf-trace-v1")),
            (
                "spans",
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children that overlap each other are counted once,
/// and any part of a child outside the parent is ignored.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Totals of one `(layer, name)` pair across a trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Aggregate {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub counts: BTreeMap<&'static str, f64>,
}

/// Sums spans by `(layer, name)`.
pub fn aggregate(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Aggregate> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), Aggregate> = BTreeMap::new();
    for s in spans {
        let agg = out.entry((s.layer, s.name)).or_default();
        agg.calls += 1;
        agg.total_ns += s.duration_ns();
        agg.self_ns += self_time_ns(s, children.get(&s.id).map_or(&[], Vec::as_slice));
        for &(k, v) in &s.counts {
            *agg.counts.entry(k).or_default() += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            cell: String::new(),
            layer: "t",
            name: "s",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let root = span(0, None, 100, 1100);
        let a = span(1, Some(0), 200, 500);
        let b = span(2, Some(0), 600, 700);
        // A grandchild is inside `a`; it is not a child of the root.
        assert_eq!(self_time_ns(&root, &[&a, &b]), 1000 - 300 - 100);
        assert_eq!(self_time_ns(&root, &[]), 1000);
        assert_eq!(self_time_ns(&a, &[&span(3, Some(1), 250, 300)]), 250);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        let root = span(0, None, 0, 1000);
        let a = span(1, Some(0), 100, 400);
        let b = span(2, Some(0), 300, 600); // overlaps a by 100
        let c = span(3, Some(0), 350, 380); // inside both
        let d = span(4, Some(0), 900, 1200); // runs past the parent
        let e = span(5, Some(0), 2000, 2100); // wholly outside
                                              // Covered: [100,600) and [900,1000) = 600.
        assert_eq!(self_time_ns(&root, &[&d, &c, &b, &a, &e]), 400);
    }

    #[test]
    fn recorder_links_parents_and_aggregates_counts() {
        let mut r = Recorder::new(true);
        r.set_cell("gcc/tuned");
        r.enter("harness", "root");
        let v = r.call(
            "core",
            "Sdt::run",
            || 21 * 2,
            |v| vec![("instrs", *v as f64)],
        );
        assert_eq!(v, 42);
        r.call("core", "Sdt::run", || (), |_| vec![("instrs", 8.0)]);
        r.exit(&[("cells", 1.0)]);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].cell, "gcc/tuned");
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let agg = aggregate(spans);
        let run = &agg[&("core", "Sdt::run")];
        assert_eq!(run.calls, 2);
        assert_eq!(run.counts["instrs"], 50.0);
        let root = &agg[&("harness", "root")];
        assert_eq!(root.self_ns, root.total_ns - run.total_ns);
        let doc = r.to_json();
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_calls() {
        let mut r = Recorder::new(false);
        r.enter("harness", "root");
        assert_eq!(r.call("isa", "decode", || 7, |_| vec![]), 7);
        r.exit(&[]);
        assert!(r.spans().is_empty());
    }
}
