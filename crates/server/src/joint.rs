//! Joint catalog simulation on a shared slot clock.
//!
//! [`crate::Server::simulate`] runs each video independently, which is
//! exact for *average* bandwidth (Poisson splitting) but only yields an
//! upper bound for the *peak* — per-video peaks need not coincide. For
//! slotted policies this module simulates every video against the same
//! clock and sums per-slot loads, giving the true joint peak a server
//! would have to provision for.

use dhb_core::Dhb;
use vod_protocols::npb::npb_streams_for;
use vod_protocols::UniversalDistribution;
use vod_sim::{ArrivalProcess, PoissonProcess, RunningStats, SimRng, SlottedProtocol};
use vod_types::{Slot, Streams};

use crate::catalog::Catalog;
use crate::policy::Policy;
use crate::server::Server;

/// Outcome of a joint simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct JointReport {
    /// Mean summed per-slot bandwidth (equals the independent-run total in
    /// expectation).
    pub total_avg: Streams,
    /// The true joint peak: the maximum, over slots, of the summed load.
    pub joint_peak: Streams,
    /// Total requests across the catalog.
    pub requests: u64,
}

impl Server {
    /// Simulates the whole catalog on a shared slot clock, exactly
    /// measuring the joint peak. Returns `None` for policies that involve
    /// continuous-time protocols (tapping, the hot/cold split), which have
    /// no shared slot grid.
    #[must_use]
    pub fn simulate_joint(&self, policy: &Policy) -> Option<JointReport> {
        let mut protocols: Vec<Box<dyn SlottedProtocol>> = Vec::new();
        for entry in self.catalog().entries() {
            let n = entry.spec.n_segments();
            let protocol: Box<dyn SlottedProtocol> = match policy {
                Policy::DhbEverywhere => Box::new(Dhb::fixed_rate(n)),
                Policy::UdEverywhere => Box::new(UniversalDistribution::new(n)),
                // NPB is accounted at its *allocated* bandwidth (the paper's
                // convention and what a server must provision), not the
                // slightly lower transmitted load of a truncated schedule.
                Policy::NpbEverywhere => Box::new(AllocatedStreams(npb_streams_for(n) as u32)),
                Policy::TappingEverywhere | Policy::HotColdSplit { .. } => return None,
            };
            protocols.push(protocol);
        }
        self.drive_joint(self.catalog(), &mut protocols)
    }

    fn drive_joint(
        &self,
        catalog: &Catalog,
        protocols: &mut [Box<dyn SlottedProtocol>],
    ) -> Option<JointReport> {
        // A shared slot grid only exists when every video's segments have
        // the same duration; heterogeneous catalogs have no joint clock.
        let spec = catalog.entries()[0].spec;
        let d = spec.segment_duration().as_secs_f64();
        if catalog
            .entries()
            .iter()
            .any(|e| (e.spec.segment_duration().as_secs_f64() - d).abs() > f64::EPSILON)
        {
            return None;
        }
        let (warmup, measured) = self.windows();
        let total_slots = warmup + measured;

        // Independent per-video arrival streams, deterministically seeded.
        let mut rngs: Vec<SimRng> = (0..catalog.len())
            .map(|i| {
                SimRng::seed_from(
                    self.base_seed()
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                )
            })
            .collect();
        let mut arrivals: Vec<PoissonProcess> = catalog
            .entries()
            .iter()
            .map(|e| PoissonProcess::new(e.rate))
            .collect();
        let mut pending: Vec<Option<f64>> = arrivals
            .iter_mut()
            .zip(&mut rngs)
            .map(|(a, rng)| a.next_arrival(rng).map(|t| t.as_secs_f64()))
            .collect();

        let mut stats = RunningStats::new();
        let mut peak = 0u64;
        let mut requests = 0u64;
        for slot_idx in 0..total_slots {
            let slot = Slot::new(slot_idx);
            let slot_end = (slot_idx + 1) as f64 * d;
            let mut slot_load = 0u64;
            for (v, protocol) in protocols.iter_mut().enumerate() {
                while let Some(t) = pending[v] {
                    if t >= slot_end {
                        break;
                    }
                    protocol.on_request(slot);
                    requests += 1;
                    pending[v] = arrivals[v]
                        .next_arrival(&mut rngs[v])
                        .map(|t| t.as_secs_f64());
                }
                slot_load += u64::from(protocol.transmissions_in(slot));
            }
            if slot_idx >= warmup {
                stats.push(slot_load as f64);
                peak = peak.max(slot_load);
            }
        }

        Some(JointReport {
            total_avg: Streams::new(stats.mean()),
            joint_peak: Streams::new(peak as f64),
            requests,
        })
    }
}

/// A fixed allocation of whole streams, demand-independent.
#[derive(Debug, Clone, Copy)]
struct AllocatedStreams(u32);

impl SlottedProtocol for AllocatedStreams {
    fn name(&self) -> &str {
        "NPB"
    }
    fn on_request(&mut self, _: Slot) {}
    fn transmissions_in(&mut self, _: Slot) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_types::{ArrivalRate, VideoSpec};

    fn server() -> Server {
        let catalog = Catalog::zipf(
            5,
            ArrivalRate::per_hour(250.0),
            1.0,
            VideoSpec::paper_two_hour(),
        );
        Server::new(catalog)
            .warmup_slots(80)
            .measured_slots(600)
            .seed(13)
    }

    #[test]
    fn joint_peak_is_below_the_sum_of_independent_peaks() {
        let server = server();
        let joint = server.simulate_joint(&Policy::DhbEverywhere).unwrap();
        let independent = server.simulate(&Policy::DhbEverywhere);
        assert!(
            joint.joint_peak.get() <= independent.peak_upper_bound.get(),
            "joint {} vs bound {}",
            joint.joint_peak,
            independent.peak_upper_bound
        );
        // With five staggered videos the slack is substantial.
        assert!(
            joint.joint_peak.get() < 0.95 * independent.peak_upper_bound.get(),
            "joint peak {} suspiciously close to the bound {}",
            joint.joint_peak,
            independent.peak_upper_bound
        );
    }

    #[test]
    fn joint_average_matches_independent_average() {
        let server = server();
        let joint = server.simulate_joint(&Policy::UdEverywhere).unwrap();
        let independent = server.simulate(&Policy::UdEverywhere);
        let rel = (joint.total_avg.get() - independent.total_avg.get()).abs()
            / independent.total_avg.get();
        assert!(
            rel < 0.05,
            "joint {} vs independent {}",
            joint.total_avg,
            independent.total_avg
        );
    }

    #[test]
    fn npb_joint_peak_is_exactly_the_allocation() {
        let server = server();
        let joint = server.simulate_joint(&Policy::NpbEverywhere).unwrap();
        // 5 videos × 6 streams, minus idle truncated slots in the average
        // but the *transmitted* NPB schedule is also nearly full; the peak
        // cannot exceed the allocation.
        assert!(joint.joint_peak.get() <= 30.0);
        assert!(joint.total_avg.get() > 25.0);
    }

    #[test]
    fn continuous_policies_are_rejected() {
        let server = server();
        assert!(server.simulate_joint(&Policy::TappingEverywhere).is_none());
        assert!(server
            .simulate_joint(&Policy::HotColdSplit {
                broadcast_at_or_above: ArrivalRate::per_hour(10.0)
            })
            .is_none());
    }

    #[test]
    fn joint_runs_are_deterministic() {
        let server = server();
        let a = server.simulate_joint(&Policy::DhbEverywhere).unwrap();
        let b = server.simulate_joint(&Policy::DhbEverywhere).unwrap();
        assert_eq!(a, b);
    }
}
