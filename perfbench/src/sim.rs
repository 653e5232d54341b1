//! The `sim_sweep` workload: `dhb_core::Dhb` through `vod_sim::RateSweep`
//! on the paper video over the paper rate grid at full quality, serially.

use std::time::{Duration, Instant};

use dhb_core::{Dhb, DhbScheduler};
use vod_sim::{RateSweep, RunSpec, SlotOutcome, SlottedProtocol};
use vod_types::{Slot, VideoSpec};

use crate::report::{Metric, PhaseOut};
use crate::trace::{self, span};
use crate::util::{median, own_cpu_s};

const WARMUP_SLOTS: u64 = 300;
const MEASURED_SLOTS: u64 = 4_000;
/// Distinct seeds per run; later passes repeat them and must reproduce
/// their results exactly.
const SEEDS: u64 = 3;
/// Set-up: a quick sweep that faults in code and allocator state.
const SETUP_REPS: usize = 3;
const SETUP_MEASURED_SLOTS: u64 = 600;

fn params() -> String {
    format!(
        "video=paper_two_hour segments=99 rates_per_hour={:?} warmup_slots={WARMUP_SLOTS} \
         measured_slots={MEASURED_SLOTS} jobs=1 distinct_seeds={SEEDS} setup_reps={SETUP_REPS} \
         setup_measured_slots={SETUP_MEASURED_SLOTS}",
        RateSweep::PAPER_RATES_PER_HOUR
    )
}

/// `Dhb` with every call from the engine into `core` wrapped in a span,
/// and the arrival slots recorded for the replay check.
struct Probe {
    inner: Dhb,
    arrivals: Vec<u64>,
}

impl SlottedProtocol for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_request(&mut self, slot: Slot) {
        self.arrivals.push(slot.index());
        span("core", "schedule_request", || self.inner.on_request(slot));
    }

    fn transmissions_in(&mut self, slot: Slot) -> u32 {
        span("core", "pop_slot", || self.inner.transmissions_in(slot))
    }

    fn playback_delay_slots(&self) -> u64 {
        self.inner.playback_delay_slots()
    }

    fn on_slot_outcome(&mut self, outcome: &SlotOutcome) {
        self.inner.on_slot_outcome(outcome);
    }

    fn stall_slots(&self) -> u64 {
        self.inner.stall_slots()
    }
}

#[derive(Default)]
struct Pass {
    /// `(avg, max)` streams per rate.
    points: Vec<(f64, f64)>,
    requests: u64,
    new_instances: u64,
    shared_instances: u64,
    /// Wall and CPU time spent inside `SlottedRun::run`, summed over the
    /// pass's points.
    busy_s: f64,
    cpu_s: f64,
    arrivals: Vec<Vec<u64>>,
}

/// Runs one rate point of a sweep and adds it to `pass`.
fn run_point(spec: &RunSpec, pass: &mut Pass) {
    let mut probe = Probe {
        inner: Dhb::fixed_rate(99),
        arrivals: Vec::new(),
    };
    let (t0, cpu0) = (Instant::now(), own_cpu_s());
    let report = span("sim", "run", || {
        spec.slotted().run(&mut probe, spec.arrivals())
    });
    pass.busy_s += t0.elapsed().as_secs_f64();
    pass.cpu_s += own_cpu_s() - cpu0;
    pass.points
        .push((report.avg_bandwidth.get(), report.max_bandwidth.get()));
    pass.requests += report.total_requests;
    let stats = probe.inner.stats();
    pass.new_instances += stats.new_instances;
    pass.shared_instances += stats.shared_instances;
    pass.arrivals.push(probe.arrivals);
}

fn specs(seed: u64, warmup: u64, measured: u64) -> Vec<RunSpec> {
    RateSweep::new(VideoSpec::paper_two_hour())
        .rates_per_hour(&RateSweep::PAPER_RATES_PER_HOUR)
        .warmup_slots(warmup)
        .measured_slots(measured)
        .seed(seed)
        .jobs(1)
        .specs()
}

/// Recomputes one rate's mean and peak streams from its recorded arrivals
/// with a bare `DhbScheduler`, outside the simulator.
fn replay_point(arrivals: &[u64]) -> (f64, f64) {
    let mut scheduler = DhbScheduler::fixed_rate(99);
    let (mut sum, mut max, mut next) = (0u64, 0usize, 0usize);
    for slot in 0..WARMUP_SLOTS + MEASURED_SLOTS {
        while arrivals.get(next) == Some(&slot) {
            let _ = scheduler.schedule_request(Slot::new(slot));
            next += 1;
        }
        let (_, aired) = scheduler.pop_slot();
        if slot >= WARMUP_SLOTS {
            sum += aired.len() as u64;
            max = max.max(aired.len());
        }
    }
    (sum as f64 / MEASURED_SLOTS as f64, max as f64)
}

/// The sweep, advanced point by point in the time slices a run gives it.
pub struct SimRun {
    seed: u64,
    out: PhaseOut,
    done: Vec<Pass>,
    current: Pass,
    current_specs: Vec<RunSpec>,
}

impl SimRun {
    /// Set-up: a few quick sweeps that fault in code and allocator state.
    pub fn start(seed: u64) -> SimRun {
        let mut out = PhaseOut::new("sim_sweep", params());
        let mut setup = Vec::new();
        for rep in 0..SETUP_REPS {
            let t0 = Instant::now();
            let mut pass = Pass::default();
            for spec in specs(seed.wrapping_add(rep as u64), 100, SETUP_MEASURED_SLOTS).iter() {
                run_point(spec, &mut pass);
            }
            setup.push(t0.elapsed().as_secs_f64());
        }
        out.setup_s = median(&mut setup);
        let _ = trace::take_all();
        SimRun {
            seed,
            out,
            done: Vec::new(),
            current: Pass::default(),
            current_specs: specs(seed, WARMUP_SLOTS, MEASURED_SLOTS),
        }
    }

    /// Runs sweep points until `dur` has passed (at least one point).
    pub fn run_for(&mut self, dur: Duration) {
        let t0 = Instant::now();
        loop {
            let i = self.current.points.len();
            run_point(&self.current_specs[i], &mut self.current);
            if self.current.points.len() == self.current_specs.len() {
                self.close_pass();
            }
            if t0.elapsed() >= dur {
                break;
            }
        }
        self.merge_spans();
    }

    fn merge_spans(&mut self) {
        for (key, a) in trace::aggregate(&trace::take_all()) {
            let e = self.out.aggs.entry(key).or_default();
            e.calls += a.calls;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }

    fn close_pass(&mut self) {
        let mut pass = std::mem::take(&mut self.current);
        let i = self.done.len() as u64;
        if i >= SEEDS {
            let first = &self.done[(i % SEEDS) as usize];
            self.out.check(
                pass.points == first.points && pass.requests == first.requests,
                format!(
                    "pass {i} did not reproduce pass {} of the same seed",
                    i % SEEDS
                ),
            );
            pass.arrivals = Vec::new();
        }
        self.done.push(pass);
        let next = self.done.len() as u64;
        self.current_specs = specs(
            self.seed.wrapping_add(next % SEEDS),
            WARMUP_SLOTS,
            MEASURED_SLOTS,
        );
    }

    pub fn finish(mut self) -> PhaseOut {
        // The stream metrics need every distinct seed swept in full.
        while (self.done.len() as u64) < SEEDS {
            self.run_for(Duration::ZERO);
        }
        self.merge_spans();
        let passes = &self.done;
        let out = &mut self.out;
        let mut mismatched = 0;
        for pass in passes.iter().take(SEEDS as usize) {
            for (arrivals, &(avg, max)) in pass.arrivals.iter().zip(&pass.points) {
                let (r_avg, r_max) = replay_point(arrivals);
                if (r_avg - avg).abs() > 1e-9 || r_max != max {
                    mismatched += 1;
                }
            }
        }
        out.check(
            mismatched == 0,
            format!("{mismatched} sweep points differ from the DhbScheduler replay"),
        );
        let rates_per_pass = RateSweep::PAPER_RATES_PER_HOUR.len() as u64;
        out.attempted += passes.len() as u64 * rates_per_pass;

        let distinct = &passes[..SEEDS as usize];
        let grid_mean = |f: fn(&(f64, f64)) -> f64| {
            distinct
                .iter()
                .map(|p| p.points.iter().map(f).sum::<f64>() / p.points.len() as f64)
                .sum::<f64>()
                / distinct.len() as f64
        };
        let n = passes.len() as u64;
        let requests: u64 = passes.iter().map(|p| p.requests).sum();
        let busy_s: f64 = passes.iter().map(|p| p.busy_s).sum();
        out.metric(Metric::new(
            "sim_requests_per_s",
            requests as f64 / busy_s,
            "1/s",
            n,
        ));
        let cpu_s: f64 = passes.iter().map(|p| p.cpu_s).sum();
        out.metric(Metric::new(
            "sim_cpu_ns_per_request",
            cpu_s * 1e9 / requests.max(1) as f64,
            "ns",
            n,
        ));
        out.metric(Metric::new(
            "sim_avg_streams",
            grid_mean(|p| p.0),
            "streams",
            SEEDS,
        ));
        out.metric(Metric::new(
            "sim_max_streams",
            grid_mean(|p| p.1),
            "streams",
            SEEDS,
        ));
        out.notes.push(format!(
            "sim_sweep: {n} full passes over {SEEDS} seeds, {requests} requests in {busy_s:.2} s \
             inside SlottedRun::run"
        ));

        let new: u64 = passes.iter().map(|p| p.new_instances).sum();
        let shared: u64 = passes.iter().map(|p| p.shared_instances).sum();
        let slots = n * rates_per_pass * (WARMUP_SLOTS + MEASURED_SLOTS);
        let sched = trace::call(&out.aggs, "core", "schedule_request");
        let pop = trace::call(&out.aggs, "core", "pop_slot");
        let engine = trace::call(&out.aggs, "sim", "run");
        out.layer("core.schedule_ns", sched.mean_ns(), "ns");
        out.layer("core.pop_slot_ns", pop.mean_ns(), "ns");
        out.layer(
            "core.pops_per_request",
            slots as f64 / requests.max(1) as f64,
            "count",
        );
        out.layer(
            "core.share_ratio",
            shared as f64 / (shared + new).max(1) as f64,
            "ratio",
        );
        out.layer(
            "core.new_instances_per_request",
            new as f64 / requests.max(1) as f64,
            "count",
        );
        let engine_slots = (engine.calls * (WARMUP_SLOTS + MEASURED_SLOTS)).max(1);
        out.layer(
            "sim.engine_self_ns_per_slot",
            engine.self_ns as f64 / engine_slots as f64,
            "ns",
        );
        self.out
    }
}
