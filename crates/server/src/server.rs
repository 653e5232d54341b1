//! Catalog simulation under an assignment policy.

use std::fmt;

use dhb_core::Dhb;
use vod_protocols::npb::{npb_mapping_for, npb_streams_for};
use vod_protocols::{FixedBroadcast, StreamTapping, TappingPolicy, UniversalDistribution};
use vod_sim::{ContinuousRun, FaultPlan, FaultSummary, PoissonProcess, Runner, SlottedRun};
use vod_types::{ArrivalRate, Streams};

use crate::catalog::{Catalog, VideoEntry, VideoId};
use crate::policy::{AssignedProtocol, Policy};

/// One video's share of the server's load.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoReport {
    /// Which video.
    pub id: VideoId,
    /// Its configured request rate.
    pub rate: ArrivalRate,
    /// The protocol that served it (display name).
    pub protocol: String,
    /// Its average bandwidth.
    pub avg: Streams,
    /// Its peak bandwidth over the measured window.
    pub peak: Streams,
    /// Fraction of this video's scheduled transmissions delivered (1.0
    /// without faults).
    pub delivery_ratio: f64,
    /// Playback deferral accumulated by DHB fault recovery, in seconds
    /// (0 for other protocols, which have no recovery path).
    pub stall_secs: f64,
}

/// Aggregate outcome of a catalog simulation.
///
/// Per-video averages add exactly (Poisson splitting); the peak is reported
/// as the sum of per-video peaks, an *upper bound* on the true joint peak
/// since per-video peaks need not coincide in time. For fault-free slotted
/// policies [`joint_peak`](ServerReport::joint_peak) additionally holds the
/// exact peak measured on a shared slot clock (see
/// [`Server::simulate_joint`]); the bound remains as the fallback for
/// policies with no common grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Sum of per-video average bandwidths (exact).
    pub total_avg: Streams,
    /// Sum of per-video peaks (an upper bound on the joint peak).
    pub peak_upper_bound: Streams,
    /// The true joint peak on a shared slot clock, when the policy is
    /// fully slotted and no faults are injected; `None` otherwise.
    pub joint_peak: Option<Streams>,
    /// Catalog-wide fraction of scheduled transmissions delivered (1.0
    /// without faults).
    pub delivery_ratio: f64,
    /// Total playback deferral across the catalog, in seconds.
    pub total_stall_secs: f64,
    /// Per-video breakdown, hottest first.
    pub per_video: Vec<VideoReport>,
}

impl ServerReport {
    /// Exports the report into a metrics [`Registry`](vod_obs::Registry)
    /// under the `server.*` namespace: aggregate gauges plus per-video
    /// `server.video.<id>.*` breakdowns, so catalog runs serialize through
    /// the same snapshot pipeline as engine runs.
    pub fn export_metrics(&self, registry: &mut vod_obs::Registry) {
        registry.set_gauge("server.total_avg_streams", self.total_avg.get());
        registry.set_gauge(
            "server.peak_upper_bound_streams",
            self.peak_upper_bound.get(),
        );
        if let Some(peak) = self.joint_peak {
            registry.set_gauge("server.joint_peak_streams", peak.get());
        }
        registry.set_gauge("server.delivery_ratio", self.delivery_ratio);
        registry.set_gauge("server.total_stall_secs", self.total_stall_secs);
        registry.inc("server.videos", self.per_video.len() as u64);
        for video in &self.per_video {
            let base = format!("server.video.{}", video.id.0);
            registry.set_gauge(&format!("{base}.rate_per_hour"), video.rate.as_per_hour());
            registry.set_gauge(&format!("{base}.avg_streams"), video.avg.get());
            registry.set_gauge(&format!("{base}.peak_streams"), video.peak.get());
            registry.set_gauge(&format!("{base}.delivery_ratio"), video.delivery_ratio);
            registry.set_gauge(&format!("{base}.stall_secs"), video.stall_secs);
        }
    }
}

impl fmt::Display for ServerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} videos: avg {:.2} streams, peak ",
            self.per_video.len(),
            self.total_avg.get(),
        )?;
        match self.joint_peak {
            Some(peak) => write!(
                f,
                "{:.1} (bound {:.1})",
                peak.get(),
                self.peak_upper_bound.get()
            ),
            None => write!(f, "≤ {:.1}", self.peak_upper_bound.get()),
        }?;
        if self.delivery_ratio < 1.0 {
            write!(
                f,
                ", delivered {:.1}%, stalled {:.0} s",
                self.delivery_ratio * 100.0,
                self.total_stall_secs
            )?;
        }
        Ok(())
    }
}

/// A multi-video server simulation.
#[derive(Debug, Clone)]
pub struct Server {
    catalog: Catalog,
    warmup_slots: u64,
    measured_slots: u64,
    seed: u64,
    fault_plan: FaultPlan,
    jobs: usize,
}

impl Server {
    /// Creates a server over `catalog` with default windows.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Server {
            catalog,
            warmup_slots: 150,
            measured_slots: 1_500,
            seed: 0x5E21_F00D,
            fault_plan: FaultPlan::none(),
            jobs: 1,
        }
    }

    /// Fans the per-video simulations across `jobs` worker threads via the
    /// [`Runner`]. Every video already draws from its own derived seed and
    /// fault stream and results are collected in catalog order, so the
    /// report is byte-identical for every job count (asserted by the
    /// determinism tests). The default, 1, runs serially.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Injects channel faults into every video's run (same plan, but each
    /// video draws from its own derived fault stream). With faults active,
    /// NPB is simulated through its actual broadcast mapping rather than
    /// accounted analytically, so its losses are observable too.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the warm-up window (slots).
    #[must_use]
    pub fn warmup_slots(mut self, slots: u64) -> Self {
        self.warmup_slots = slots;
        self
    }

    /// Sets the measured window (slots).
    #[must_use]
    pub fn measured_slots(mut self, slots: u64) -> Self {
        self.measured_slots = slots;
        self
    }

    /// Sets the base seed (each video derives its own).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The catalog under simulation.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The `(warmup, measured)` slot windows.
    #[must_use]
    pub(crate) fn windows(&self) -> (u64, u64) {
        (self.warmup_slots, self.measured_slots)
    }

    /// The base seed.
    #[must_use]
    pub(crate) fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan for the video at catalog index `idx`: the configured
    /// plan with a per-video derived fault seed, so videos do not share one
    /// loss stream.
    fn fault_plan_for(&self, idx: usize) -> FaultPlan {
        let derived = self
            .fault_plan
            .seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx as u64);
        self.fault_plan.clone().with_seed(derived)
    }

    /// Simulates one catalog entry under `policy`, returning its report and
    /// its fault accounting. Fully self-contained: the entry's arrival seed
    /// and fault stream are derived from `idx`, so any thread can run it.
    fn simulate_video(
        &self,
        policy: &Policy,
        idx: usize,
        entry: &VideoEntry,
    ) -> (VideoReport, FaultSummary) {
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx as u64);
        let n = entry.spec.n_segments();

        // Decide each video's protocol once, via the shared policy logic.
        let assigned = policy.assign(entry.rate);

        let slotted_run = || {
            SlottedRun::new(entry.spec)
                .warmup_slots(self.warmup_slots)
                .measured_slots(self.measured_slots)
                .seed(seed)
                .fault_plan(self.fault_plan_for(idx))
        };

        let (protocol, avg, peak, video_faults, stall_secs) = match assigned {
            AssignedProtocol::Tapping => {
                let d = entry.spec.segment_duration();
                let report =
                    ContinuousRun::new(d * (self.warmup_slots + self.measured_slots) as f64)
                        .warmup(d * self.warmup_slots as f64)
                        .seed(seed)
                        .fault_plan(self.fault_plan_for(idx))
                        .run(
                            &mut StreamTapping::new(entry.spec.duration(), TappingPolicy::Extra),
                            PoissonProcess::new(entry.rate),
                        );
                (
                    "stream tapping".to_owned(),
                    report.avg_bandwidth,
                    report.max_bandwidth,
                    report.faults,
                    0.0,
                )
            }
            AssignedProtocol::Npb if self.fault_plan.is_zero() => {
                // Deterministic: the full allocation, always.
                let streams = npb_streams_for(n) as f64;
                (
                    "NPB".to_owned(),
                    Streams::new(streams),
                    Streams::new(streams),
                    FaultSummary::default(),
                    0.0,
                )
            }
            AssignedProtocol::Npb => {
                // Under faults the analytic allocation says nothing
                // about what reaches clients: run the actual broadcast
                // mapping through the engine so drops are observable.
                let mut npb = FixedBroadcast::new(npb_mapping_for(n));
                let report = slotted_run().run(&mut npb, PoissonProcess::new(entry.rate));
                (
                    "NPB".to_owned(),
                    report.avg_bandwidth,
                    report.max_bandwidth,
                    report.faults,
                    0.0,
                )
            }
            AssignedProtocol::Ud => {
                let mut ud = UniversalDistribution::new(n);
                let report = slotted_run().run(&mut ud, PoissonProcess::new(entry.rate));
                (
                    "UD".to_owned(),
                    report.avg_bandwidth,
                    report.max_bandwidth,
                    report.faults,
                    0.0,
                )
            }
            AssignedProtocol::Dhb => {
                // The slot-outcome hook drives recovery and stall
                // accounting under faults; fault-free, nothing drops and
                // it does nothing.
                let mut dhb = Dhb::fixed_rate(n);
                let report = slotted_run().run(&mut dhb, PoissonProcess::new(entry.rate));
                (
                    "DHB".to_owned(),
                    report.avg_bandwidth,
                    report.max_bandwidth,
                    report.faults,
                    report.stall_secs,
                )
            }
        };

        (
            VideoReport {
                id: entry.id,
                rate: entry.rate,
                protocol,
                avg,
                peak,
                delivery_ratio: video_faults.delivery_ratio(),
                stall_secs,
            },
            video_faults,
        )
    }

    /// Simulates the whole catalog under `policy`. Per-video runs are
    /// independent and fan across the configured [`jobs`](Server::jobs);
    /// results merge in catalog order, so the report does not depend on the
    /// job count.
    #[must_use]
    pub fn simulate(&self, policy: &Policy) -> ServerReport {
        let tasks: Vec<_> = self
            .catalog
            .entries()
            .iter()
            .enumerate()
            .map(|(idx, entry)| move || self.simulate_video(policy, idx, entry))
            .collect();
        let results = Runner::new(self.jobs).run(tasks);

        let mut per_video = Vec::with_capacity(results.len());
        let mut faults = FaultSummary::default();
        let mut total_stall_secs = 0.0;
        for (report, video_faults) in results {
            faults.merge(&video_faults);
            total_stall_secs += report.stall_secs;
            per_video.push(report);
        }

        // The exact joint peak needs a shared fault-free slot grid; the
        // summed per-video peaks remain as the bound either way.
        let joint_peak = if self.fault_plan.is_zero() {
            self.simulate_joint(policy).map(|j| j.joint_peak)
        } else {
            None
        };

        ServerReport {
            total_avg: per_video.iter().map(|v| v.avg).sum(),
            peak_upper_bound: per_video.iter().map(|v| v.peak).sum(),
            joint_peak,
            delivery_ratio: faults.delivery_ratio(),
            total_stall_secs,
            per_video,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_types::VideoSpec;

    fn small_server() -> Server {
        let catalog = Catalog::zipf(
            6,
            ArrivalRate::per_hour(300.0),
            1.0,
            VideoSpec::paper_two_hour(),
        );
        Server::new(catalog)
            .warmup_slots(80)
            .measured_slots(500)
            .seed(5)
    }

    #[test]
    fn dhb_beats_both_pure_extremes_on_a_zipf_catalog() {
        // The paper's deployment argument: a mixed-popularity catalog makes
        // any one-size-fixed choice lose — DHB adapts per video.
        let server = small_server();
        let dhb = server.simulate(&Policy::DhbEverywhere);
        let npb = server.simulate(&Policy::NpbEverywhere);
        let tapping = server.simulate(&Policy::TappingEverywhere);
        assert!(
            dhb.total_avg.get() < npb.total_avg.get(),
            "DHB {} vs NPB {}",
            dhb.total_avg,
            npb.total_avg
        );
        assert!(
            dhb.total_avg.get() < tapping.total_avg.get(),
            "DHB {} vs tapping {}",
            dhb.total_avg,
            tapping.total_avg
        );
    }

    #[test]
    fn dhb_beats_even_the_oracle_hot_cold_split() {
        let server = small_server();
        let dhb = server.simulate(&Policy::DhbEverywhere);
        // Sweep split thresholds; DHB must beat every one of them.
        for threshold in [5.0, 20.0, 60.0, 150.0] {
            let split = server.simulate(&Policy::HotColdSplit {
                broadcast_at_or_above: ArrivalRate::per_hour(threshold),
            });
            assert!(
                dhb.total_avg.get() < split.total_avg.get(),
                "DHB {} vs split@{threshold} {}",
                dhb.total_avg,
                split.total_avg
            );
        }
    }

    #[test]
    fn npb_policy_is_linear_in_catalog_size() {
        let server = small_server();
        let npb = server.simulate(&Policy::NpbEverywhere);
        // 6 videos × 6 streams.
        assert_eq!(npb.total_avg, Streams::new(36.0));
        assert_eq!(npb.peak_upper_bound, Streams::new(36.0));
    }

    #[test]
    fn per_video_reports_are_complete_and_labelled() {
        let server = small_server();
        let split = server.simulate(&Policy::HotColdSplit {
            broadcast_at_or_above: ArrivalRate::per_hour(40.0),
        });
        assert_eq!(split.per_video.len(), 6);
        // The head is NPB, the tail tapping.
        assert_eq!(split.per_video[0].protocol, "NPB");
        assert_eq!(split.per_video[5].protocol, "stream tapping");
        // Display summarises.
        assert!(split.to_string().contains("6 videos"));
    }

    #[test]
    fn simulation_is_deterministic() {
        let server = small_server();
        let a = server.simulate(&Policy::UdEverywhere);
        let b = server.simulate(&Policy::UdEverywhere);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_catalog_simulation_is_byte_identical() {
        for policy in [
            Policy::DhbEverywhere,
            Policy::TappingEverywhere,
            Policy::HotColdSplit {
                broadcast_at_or_above: ArrivalRate::per_hour(40.0),
            },
        ] {
            let serial = small_server().simulate(&policy);
            let parallel = small_server().jobs(4).simulate(&policy);
            assert_eq!(serial, parallel, "{policy:?} diverged under jobs=4");
        }
    }

    #[test]
    fn faulted_parallel_simulation_matches_serial() {
        let plan = FaultPlan::none().with_loss_rate(0.1);
        let serial = small_server()
            .fault_plan(plan.clone())
            .simulate(&Policy::DhbEverywhere);
        let parallel = small_server()
            .fault_plan(plan)
            .jobs(3)
            .simulate(&Policy::DhbEverywhere);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn joint_peak_is_exact_for_slotted_policies_and_bounded() {
        let server = small_server();
        let dhb = server.simulate(&Policy::DhbEverywhere);
        let joint = dhb.joint_peak.expect("slotted fault-free policy");
        assert!(joint.get() <= dhb.peak_upper_bound.get());
        assert!(dhb.to_string().contains("bound"));
        // Continuous policies keep only the bound.
        let tapping = server.simulate(&Policy::TappingEverywhere);
        assert!(tapping.joint_peak.is_none());
        assert_eq!(dhb.delivery_ratio, 1.0);
        assert_eq!(dhb.total_stall_secs, 0.0);
    }

    #[test]
    fn faults_degrade_delivery_and_disable_the_joint_peak() {
        let server = small_server().fault_plan(FaultPlan::none().with_loss_rate(0.1));
        let dhb = server.simulate(&Policy::DhbEverywhere);
        assert!(dhb.delivery_ratio < 1.0);
        assert!(dhb.joint_peak.is_none());
        assert!(dhb.per_video.iter().all(|v| v.delivery_ratio < 1.0));
        // DHB recovery produces stall accounting; the run remains
        // deterministic.
        let again = server.simulate(&Policy::DhbEverywhere);
        assert_eq!(dhb, again);
    }

    #[test]
    fn export_metrics_mirrors_the_report() {
        let server = small_server();
        let report = server.simulate(&Policy::DhbEverywhere);
        let mut registry = vod_obs::Registry::new();
        report.export_metrics(&mut registry);
        assert_eq!(registry.counter("server.videos"), 6);
        assert_eq!(
            registry.gauge("server.total_avg_streams"),
            Some(report.total_avg.get())
        );
        assert_eq!(
            registry.gauge("server.joint_peak_streams"),
            report.joint_peak.map(|p| p.get())
        );
        for video in &report.per_video {
            let base = format!("server.video.{}", video.id.0);
            assert_eq!(
                registry.gauge(&format!("{base}.avg_streams")),
                Some(video.avg.get()),
                "{base}"
            );
            assert_eq!(
                registry.gauge(&format!("{base}.delivery_ratio")),
                Some(video.delivery_ratio)
            );
        }
        // The snapshot serializes deterministically.
        let json = registry.to_json_pretty();
        assert!(json.contains("\"server.total_avg_streams\""));
    }

    #[test]
    fn npb_is_simulated_through_its_mapping_under_faults() {
        let server = small_server().fault_plan(FaultPlan::none().with_loss_rate(0.1));
        let npb = server.simulate(&Policy::NpbEverywhere);
        // The analytic path would report exactly 36 streams; the simulated
        // mapping transmits at most the allocation and loses some of it.
        assert!(npb.total_avg.get() <= 36.0);
        assert!(npb.delivery_ratio < 1.0);
        assert_eq!(npb.per_video[0].protocol, "NPB");
        // Fault-free, the analytic path is intact.
        let clean = small_server().simulate(&Policy::NpbEverywhere);
        assert_eq!(clean.total_avg, Streams::new(36.0));
        assert_eq!(clean.delivery_ratio, 1.0);
    }
}
