//! The traced run's span recorder.
//!
//! The library stays clock-free, so every wall time here is taken by the
//! benchmark itself around its calls into a layer's public function. A span
//! records its name, start, end and parent; spans stay in memory and are
//! written out once the run ends. A layer's self time is its span minus the
//! time its child spans cover, both at the nominal host speed (see
//! [`crate::host`]).
//!
//! While a `scream-obs` sink is installed, each span also diffs the sink's
//! deterministic counters across its interval, so a layer's work (probes,
//! rounds, packets) is attributed to the call that did it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scream_obs::Snapshot;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Deterministic work attributed to one span name: `scream-obs` counters
/// and histogram `(count, sum)` pairs diffed over its spans, plus the
/// benchmark's own tallies (entries verified, packets delivered, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work {
    pub counters: BTreeMap<&'static str, u64>,
    pub histograms: BTreeMap<&'static str, (u64, u64)>,
}

impl Work {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the samples recorded into histogram `name`.
    pub fn histogram_sum(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |&(_, sum)| sum)
    }

    /// Mean of the samples recorded into histogram `name` (0 when empty).
    pub fn histogram_mean(&self, name: &str) -> f64 {
        self.histograms
            .get(name)
            .map_or(0.0, |&(count, sum)| ratio(sum as f64, count as f64))
    }

    fn add_diff(&mut self, after: &Snapshot, before: &Snapshot) {
        let delta = after.diff(before);
        for (name, value) in delta.counters.into_iter().filter(|&(_, v)| v > 0) {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, histogram) in delta.histograms.into_iter().filter(|(_, h)| h.count > 0) {
            let entry = self.histograms.entry(name).or_insert((0, 0));
            entry.0 += histogram.count;
            entry.1 += histogram.sum;
        }
    }
}

/// `num / den`, or 0 when the base is empty (a layer a workload never runs).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Records spans when enabled; when disabled, `span` is a plain call and
/// the clock is never read on its account.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<(usize, Option<Snapshot>)>,
    work: BTreeMap<&'static str, Work>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            work: BTreeMap::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&(index, _)| index);
        let start_ns = crate::host::now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open
            .push((self.spans.len() - 1, scream_obs::snapshot()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let Some((index, before)) = self.open.pop() else {
            return;
        };
        let end_ns = crate::host::now_ns();
        self.spans[index].end_ns = end_ns;
        if let (Some(before), Some(after)) = (before, scream_obs::snapshot()) {
            let name = self.spans[index].name;
            self.work.entry(name).or_default().add_diff(&after, &before);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `value` to the benchmark's own work count `count` under span
    /// name `name` (kept in untraced runs too: the checks read it).
    pub fn tally(&mut self, name: &'static str, count: &'static str, value: u64) {
        *self
            .work
            .entry(name)
            .or_default()
            .counters
            .entry(count)
            .or_insert(0) += value;
    }

    /// Closes the recorder into a per-name profile. Call it before the
    /// host probes of its spans leave the ring (see [`crate::host`]).
    pub fn finish(self) -> Profile {
        let nominal: Vec<f64> = self
            .spans
            .iter()
            .map(|span| crate::host::nominal_s(span.start_ns, span.end_ns))
            .collect();
        let mut child_s = vec![0.0; self.spans.len()];
        for (span, &total) in self.spans.iter().zip(&nominal) {
            if let Some(parent) = span.parent {
                child_s[parent] += total;
            }
        }
        let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        for ((span, &total), &children) in self.spans.iter().zip(&nominal).zip(&child_s) {
            *self_s.entry(span.name).or_insert(0.0) += (total - children).max(0.0);
        }
        Profile {
            spans: self.spans,
            self_s,
            work: self.work,
        }
    }
}

/// What one traced (or untraced) pass recorded.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub spans: Vec<Span>,
    /// Nominal-speed self seconds per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    pub work: BTreeMap<&'static str, Work>,
}

impl Profile {
    /// Summed self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn work(&self, name: &str) -> Work {
        self.work.get(name).cloned().unwrap_or_default()
    }

    /// The spans as JSON lines, each tagged with `pass`.
    pub fn write_jsonl(&self, pass: usize, out: &mut String) {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
    }
}
