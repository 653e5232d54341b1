//! The named-metrics registry and its JSON snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::LoadHistogram;
use crate::timer::LogHistogram;

/// Percentile summary of one registry histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact smallest sample.
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median (log-bucket upper bound, ≤2× error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Named counters, gauges and log-bucketed histograms.
///
/// Names follow a dotted `layer.metric` convention (`sim.requests`,
/// `dhb.recovery.reschedules`, `timer.schedule_ns` — see DESIGN.md §10).
/// Backed by `BTreeMap`s so [`to_json_pretty`](Registry::to_json_pretty) is
/// deterministic.
///
/// # Example
///
/// ```
/// use vod_obs::Registry;
///
/// let mut r = Registry::new();
/// r.inc("sim.requests", 3);
/// r.set_gauge("sim.avg_bandwidth_streams", 5.25);
/// r.observe("timer.schedule_ns", 900);
/// assert_eq!(r.counter("sim.requests"), 3);
/// assert!(r.to_json_pretty().contains("\"sim.requests\": 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `by` to the named counter (created at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.ensure_counter(name) += by;
    }

    /// Current value of the named counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Creates the counter at 0 if absent and returns it — useful to make a
    /// snapshot list a metric even when nothing incremented it.
    pub fn ensure_counter(&mut self, name: &str) -> &mut u64 {
        self.counters.entry(name.to_string()).or_insert(0)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of the named gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one sample into the named histogram (created empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Merges an externally-accumulated histogram into the named one — how
    /// hot-path [`HotTimer`](crate::HotTimer)s land in the snapshot.
    pub fn merge_histogram(&mut self, name: &str, hist: &LogHistogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// The named histogram, if any sample or merge touched it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Percentile summary of the named histogram (`None` when absent or
    /// empty).
    #[must_use]
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        let h = self.histograms.get(name)?;
        Some(HistogramSummary {
            count: h.count(),
            min: h.min()?,
            max: h.max()?,
            mean: h.mean(),
            p50: h.quantile(0.5)?,
            p90: h.quantile(0.9)?,
            p99: h.quantile(0.99)?,
        })
    }

    /// Publishes a [`LoadHistogram`]'s distribution shape as gauges
    /// (`<name>.mean/p50/p90/p99/max`), since per-slot loads are what the
    /// paper's Fig. 8 discussion cares about.
    pub fn record_load_quantiles(&mut self, name: &str, hist: &LoadHistogram) {
        if hist.total() == 0 {
            return;
        }
        self.set_gauge(&format!("{name}.mean"), hist.mean());
        for (suffix, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            if let Some(q) = hist.quantile(p) {
                self.set_gauge(&format!("{name}.{suffix}"), f64::from(q));
            }
        }
        if let Some(max) = hist.max_load() {
            self.set_gauge(&format!("{name}.max"), f64::from(max));
        }
    }

    /// Folds another registry into this one (counters add, gauges overwrite,
    /// histograms merge).
    pub fn merge(&mut self, other: &Registry) {
        for (name, value) in &other.counters {
            *self.ensure_counter(name) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, hist) in &other.histograms {
            self.merge_histogram(name, hist);
        }
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Serialises the snapshot as deterministic, pretty-printed JSON:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// name-sorted keys and percentile summaries for histograms.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {value}", json_string(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: ", json_string(name));
            write_json_f64(&mut out, *value);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for name in self.histograms.keys() {
            let Some(s) = self.histogram_summary(name) else {
                continue;
            };
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                out,
                "{sep}\n    {}: {{ \"count\": {}, \"min\": {}, \"max\": {}, \"mean\": ",
                json_string(name),
                s.count,
                s.min,
                s.max
            );
            write_json_f64(&mut out, s.mean);
            let _ = write!(
                out,
                ", \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                s.p50, s.p90, s.p99
            );
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("x"), 0);
        r.inc("x", 2);
        r.inc("x", 3);
        assert_eq!(r.counter("x"), 5);
        r.ensure_counter("y");
        assert_eq!(r.counter("y"), 0);
        assert!(r.counters().any(|(name, v)| name == "y" && v == 0));
    }

    #[test]
    fn histogram_summary_has_percentiles() {
        let mut r = Registry::new();
        for v in 1..=100u64 {
            r.observe("timer.t_ns", v);
        }
        let s = r.histogram_summary("timer.t_ns").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 50 && s.p50 <= 100);
        assert!(s.p99 >= s.p90 && s.p90 >= s.p50);
        assert!(r.histogram_summary("absent").is_none());
    }

    #[test]
    fn merge_folds_all_three_kinds() {
        let mut a = Registry::new();
        a.inc("c", 1);
        a.set_gauge("g", 1.0);
        a.observe("h", 10);
        let mut b = Registry::new();
        b.inc("c", 2);
        b.set_gauge("g", 2.0);
        b.observe("h", 20);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(2.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn load_quantile_gauges() {
        let mut hist = LoadHistogram::new();
        for load in [1, 2, 2, 3] {
            hist.record(load);
        }
        let mut r = Registry::new();
        r.record_load_quantiles("sim.slot_load", &hist);
        assert_eq!(r.gauge("sim.slot_load.p50"), Some(2.0));
        assert_eq!(r.gauge("sim.slot_load.max"), Some(3.0));
        assert_eq!(r.gauge("sim.slot_load.mean"), Some(2.0));

        let mut empty = Registry::new();
        empty.record_load_quantiles("x", &LoadHistogram::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut r = Registry::new();
        r.inc("b.two", 2);
        r.inc("a.one", 1);
        r.set_gauge("g", 0.5);
        r.observe("t", 7);
        let json = r.to_json_pretty();
        assert_eq!(json, r.clone().to_json_pretty());
        let a = json.find("\"a.one\"").unwrap();
        let b = json.find("\"b.two\"").unwrap();
        assert!(a < b, "keys must be name-sorted:\n{json}");
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"p99\": 7"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let json = Registry::new().to_json_pretty();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let mut r = Registry::new();
        r.set_gauge("bad", f64::NAN);
        assert!(r.to_json_pretty().contains("\"bad\": null"));
    }
}
