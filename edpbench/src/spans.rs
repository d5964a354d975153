//! Where the time went, from two sides.
//!
//! * [`Recorder`] — spans the benchmark records around its own calls
//!   into each layer (name, start, end, parent), kept in memory and
//!   written into the run record at exit. It needs no new probe names.
//! * [`SelfTimes`] — the program's existing trace spans, drained from
//!   the probe rings between calls and reduced to self time per layer.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use sram_probe::trace::{Phase, TraceEvent};
use sram_serve::Json;

/// The layer a dotted span or metric name belongs to (its first
/// segment: `coopt.search` → `coopt`).
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Debug, Clone)]
struct LocalSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The benchmark-side span recorder. A disabled recorder only runs the
/// wrapped calls, so untraced runs pay nothing.
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<LocalSpan>,
}

impl Recorder {
    pub(crate) fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock (one per client thread).
    pub(crate) fn fork(&self) -> Self {
        Self::new(self.epoch, self.enabled)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Recorder::close`] and as a
    /// parent handle.
    pub(crate) fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(LocalSpan {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub(crate) fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub(crate) fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Appends another recorder's spans (a client thread's), keeping
    /// their parent links.
    pub(crate) fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self seconds per layer over the recorded spans.
    pub(crate) fn layer_seconds(&self) -> BTreeMap<String, f64> {
        let intervals: Vec<(u64, u64, Option<usize>)> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&intervals)) {
            *out.entry(layer(span.name).to_owned()).or_insert(0.0) += self_ns as f64 / 1e9;
        }
        out
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each `(start, end, parent)` interval: its length minus
/// the part of it that its children's intervals cover. Children on
/// other threads may overlap each other, so the covered part is the
/// length of their union, not the sum.
fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(start, end, parent) in spans {
        if let Some(p) = parent {
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(&(start, end, _), kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, start);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(end));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (end - start).saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer accumulated from drained in-program trace
/// events.
#[derive(Debug, Default)]
pub(crate) struct SelfTimes {
    ns: BTreeMap<String, u64>,
    /// Drains in which some thread's ring came back full, so its oldest
    /// events may have been overwritten before the drain.
    pub(crate) full_windows: u64,
}

impl SelfTimes {
    /// Drains the probe rings (capture, then clear) and adds the self
    /// time of every span that began and ended in the drained window.
    pub(crate) fn drain(&mut self) {
        let events = sram_probe::trace::capture();
        sram_probe::trace::clear();
        let mut per_ring: HashMap<u32, usize> = HashMap::new();
        for event in &events {
            *per_ring.entry(event.tid).or_insert(0) += 1;
        }
        if per_ring
            .values()
            .any(|&n| n >= sram_probe::trace::ring_slots())
        {
            self.full_windows += 1;
        }
        self.add(&events);
    }

    fn add(&mut self, events: &[TraceEvent]) {
        let mut spans: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        let mut open: HashMap<u64, usize> = HashMap::new();
        let mut ended = Vec::new();
        for event in events {
            match event.phase {
                Phase::Begin => {
                    open.insert(event.id, spans.len());
                    spans.push((event.name, event.t_ns, event.t_ns, event.parent));
                    ended.push(false);
                }
                Phase::End => {
                    if let Some(&i) = open.get(&event.id) {
                        spans[i].2 = event.t_ns;
                        ended[i] = true;
                    }
                }
                Phase::Complete => {
                    open.insert(event.id, spans.len());
                    spans.push((
                        event.name,
                        event.t_ns,
                        event.t_ns + event.dur_ns,
                        event.parent,
                    ));
                    ended.push(true);
                }
            }
        }
        let intervals: Vec<(u64, u64, Option<usize>)> = spans
            .iter()
            .map(|&(_, start, end, parent)| (start, end, open.get(&parent).copied()))
            .collect();
        for (i, self_ns) in self_times(&intervals).into_iter().enumerate() {
            if ended[i] {
                *self.ns.entry(layer(spans[i].0).to_owned()).or_insert(0) += self_ns;
            }
        }
    }

    /// Self seconds in `layer`.
    pub(crate) fn seconds(&self, layer: &str) -> f64 {
        self.ns.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with two overlapping children (10..50, 30..70)
        // and a grandchild inside the first.
        let spans = [
            (0, 100, None),
            (10, 50, Some(0)),
            (30, 70, Some(0)),
            (20, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 35, 40, 5]);
    }

    #[test]
    fn recorder_layers_and_absorb() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, true);
        let root = rec.open("table4.pass", None);
        rec.span("coopt.optimize", root, || ());
        rec.close(root);
        let mut other = Recorder::new(epoch, true);
        other.span("serve.call", None, || ());
        rec.absorb(other);
        let layers = rec.layer_seconds();
        assert!(layers.contains_key("table4"));
        assert!(layers.contains_key("coopt"));
        assert!(layers.contains_key("serve"));
        assert_eq!(rec.to_json().as_array().map(<[Json]>::len), Some(3));

        let mut off = Recorder::new(epoch, false);
        assert_eq!(off.span("coopt.optimize", None, || 7), 7);
        assert!(off.layer_seconds().is_empty());
    }
}
