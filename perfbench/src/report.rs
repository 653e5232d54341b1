//! What one workload phase hands back: metrics, checks and counts.

use std::collections::BTreeMap;

use crate::trace::Agg;

/// One end-to-end metric with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

#[derive(Debug, Default)]
pub struct PhaseOut {
    pub name: &'static str,
    /// Every fixed parameter of the phase.
    pub params: String,
    pub setup_s: f64,
    pub metrics: Vec<Metric>,
    pub layers: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run wrong.
    pub errors: Vec<String>,
    /// Extra lines for the printed table.
    pub notes: Vec<String>,
    /// Span totals of the phase's live part, for the layer table.
    pub aggs: BTreeMap<(&'static str, &'static str), Agg>,
}

impl PhaseOut {
    pub fn new(name: &'static str, params: String) -> PhaseOut {
        PhaseOut {
            name,
            params,
            ..PhaseOut::default()
        }
    }

    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.errors.push(format!("{}: {what}", self.name));
        }
    }
}
