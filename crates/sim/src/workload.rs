//! Seeded catalog workload shapes shared by the simulator and `vodload`.
//!
//! Two orthogonal knobs describe how a synthetic audience behaves:
//!
//! * **Which video** a viewer picks — [`ZipfCatalog`], a Zipf(s) popularity
//!   law over the catalog. `s = 0` is uniform; the paper's evaluations use
//!   skews around `s ≈ 0.7–1.0`, where a handful of titles absorb most of
//!   the demand and the rest form a long cold tail.
//! * **When viewers show up** — [`ArrivalShape`], a normalized time-varying
//!   intensity (steady, linear ramp, or flash crowd) that scales a base
//!   arrival rate without changing the total expected request count.
//!
//! Both are plain data generators: they produce video assignments and
//! arrival-time offsets, deterministic for a given seed, which callers feed
//! into whatever engine they drive (the discrete-event simulator's
//! [`TimeVaryingPoisson`] workloads, or `vodload`'s open-loop pacing over a
//! live server). Keeping them here lets the load generator and the simulator
//! exercise the *same* shapes, so a demand curve studied in simulation is
//! the one replayed against `vod-svc`.

use vod_types::{ArrivalRate, Seconds};

use crate::arrivals::{ArrivalProcess, RateProfile, TimeVaryingPoisson};
use crate::rng::SimRng;

/// A Zipf(s) popularity law over a catalog of `n` videos.
///
/// Video `0` is the most popular; video `i` has weight `(i + 1)^-s`. The
/// catalog answers both sampling queries (seeded random video choice) and
/// deterministic apportionment (split `total` requests across the catalog
/// proportionally to popularity, largest-remainder rounding).
#[derive(Debug, Clone)]
pub struct ZipfCatalog {
    /// Normalized popularity share per video, indexed by video id.
    shares: Vec<f64>,
    /// Cumulative shares for inverse-CDF sampling; last entry is 1.0.
    cumulative: Vec<f64>,
    skew: f64,
}

impl ZipfCatalog {
    /// Builds a Zipf(`skew`) catalog over `videos` titles.
    ///
    /// # Panics
    ///
    /// Panics if `videos` is zero, or `skew` is negative or non-finite.
    #[must_use]
    pub fn new(videos: usize, skew: f64) -> Self {
        assert!(videos > 0, "catalog needs at least one video");
        assert!(
            skew >= 0.0 && skew.is_finite(),
            "zipf skew must be a finite non-negative number"
        );
        let raw: Vec<f64> = (1..=videos).map(|rank| (rank as f64).powf(-skew)).collect();
        let total: f64 = raw.iter().sum();
        let shares: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let mut cumulative = Vec::with_capacity(videos);
        let mut acc = 0.0;
        for share in &shares {
            acc += share;
            cumulative.push(acc);
        }
        // Guard against float drift so sample() can never fall off the end.
        *cumulative.last_mut().expect("non-empty") = 1.0;
        ZipfCatalog {
            shares,
            cumulative,
            skew,
        }
    }

    /// Number of videos in the catalog.
    #[must_use]
    pub fn videos(&self) -> usize {
        self.shares.len()
    }

    /// The skew parameter `s` this catalog was built with.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// The normalized popularity share of `video` (sums to 1 over the catalog).
    ///
    /// # Panics
    ///
    /// Panics if `video` is out of range.
    #[must_use]
    pub fn share(&self, video: usize) -> f64 {
        self.shares[video]
    }

    /// Draws one video id by inverse-CDF sampling.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.shares.len() - 1)
    }

    /// Splits `total` requests across the catalog proportionally to
    /// popularity, using largest-remainder rounding so the counts sum to
    /// exactly `total` and the head of the catalog never loses a request to
    /// float truncation.
    #[must_use]
    pub fn apportion(&self, total: usize) -> Vec<usize> {
        let mut counts: Vec<usize> = Vec::with_capacity(self.shares.len());
        let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(self.shares.len());
        let mut assigned = 0usize;
        for (video, share) in self.shares.iter().enumerate() {
            let exact = share * total as f64;
            let floor = exact.floor() as usize;
            counts.push(floor);
            assigned += floor;
            remainders.push((exact - floor as f64, video));
        }
        // Hand the leftover requests to the largest fractional parts,
        // breaking ties toward the more popular (lower-id) video.
        remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        for &(_, video) in remainders.iter().take(total - assigned) {
            counts[video] += 1;
        }
        counts
    }
}

/// A normalized time-varying arrival intensity over a run of known span.
///
/// Each shape integrates to the same total demand as a steady run at the
/// base rate — the shape redistributes *when* requests land, not how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Constant intensity: the homogeneous-Poisson baseline.
    Steady,
    /// Linear warm-up: intensity climbs from 0.25× to 1.75× the base rate
    /// across the run (approximated by eight equal steps, mean 1×).
    Ramp,
    /// A flash crowd: quiet at 0.25× for the first 40% of the run, a 4×
    /// spike for the middle 20%, then quiet again — a 16:1 swing that drives
    /// a popularity-driven policy cold→hot and back within one run.
    FlashCrowd,
}

impl ArrivalShape {
    /// Parses a shape name as used by CLI flags (`steady`, `ramp`,
    /// `flash-crowd`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "steady" => Ok(ArrivalShape::Steady),
            "ramp" => Ok(ArrivalShape::Ramp),
            "flash-crowd" | "flash_crowd" => Ok(ArrivalShape::FlashCrowd),
            other => Err(format!(
                "unknown arrival shape '{other}' (expected steady, ramp or flash-crowd)"
            )),
        }
    }

    /// The relative intensity multipliers and their span fractions.
    fn pieces(self) -> Vec<(f64, f64)> {
        match self {
            ArrivalShape::Steady => vec![(0.0, 1.0)],
            ArrivalShape::Ramp => (0..8)
                .map(|k| (k as f64 / 8.0, 0.25 + 1.5 * (k as f64 + 0.5) / 8.0))
                .collect(),
            ArrivalShape::FlashCrowd => vec![(0.0, 0.25), (0.4, 4.0), (0.6, 0.25)],
        }
    }

    /// Materializes the shape as a [`RateProfile`] spanning `span` with mean
    /// intensity `base` (the profile repeats past `span`, but callers that
    /// honor the span never wrap).
    ///
    /// # Panics
    ///
    /// Panics if `span` is not positive.
    #[must_use]
    pub fn profile(self, base: ArrivalRate, span: Seconds) -> RateProfile {
        assert!(span > Seconds::ZERO, "shape span must be positive");
        let pieces = self
            .pieces()
            .into_iter()
            .map(|(frac, mult)| {
                (
                    Seconds::new(frac * span.as_secs_f64()),
                    ArrivalRate::per_second_raw(mult * base.per_second()),
                )
            })
            .collect();
        RateProfile::new(span, pieces)
    }

    /// Draws `n` seeded arrival offsets from a non-homogeneous Poisson
    /// process with this shape, whose mean rate is `1 / mean_gap`.
    ///
    /// The offsets are strictly increasing and deterministic for a given
    /// `(shape, n, mean_gap, seed)`; they are what an open-loop load
    /// generator uses as per-request due times.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is not positive.
    #[must_use]
    pub fn offsets(self, n: usize, mean_gap: Seconds, seed: u64) -> Vec<Seconds> {
        assert!(
            mean_gap > Seconds::ZERO,
            "mean request gap must be positive"
        );
        if n == 0 {
            return Vec::new();
        }
        let base = ArrivalRate::per_second_raw(1.0 / mean_gap.as_secs_f64());
        // Span the profile over the expected duration of the whole run; the
        // thinned process wraps back to the shape's start if the draw runs
        // long, which only recycles the same intensity curve.
        let span = Seconds::new(mean_gap.as_secs_f64() * n as f64);
        let mut process = TimeVaryingPoisson::new(self.profile(base, span));
        let mut rng = SimRng::seed_from(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match process.next_arrival(&mut rng) {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_shares_are_normalized_and_monotone() {
        let catalog = ZipfCatalog::new(16, 0.9);
        let total: f64 = (0..16).map(|v| catalog.share(v)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for v in 1..16 {
            assert!(catalog.share(v) <= catalog.share(v - 1));
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let catalog = ZipfCatalog::new(8, 0.0);
        for v in 0..8 {
            assert!((catalog.share(v) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn apportion_sums_exactly_and_favors_the_head() {
        let catalog = ZipfCatalog::new(10, 1.0);
        let counts = catalog.apportion(97);
        assert_eq!(counts.iter().sum::<usize>(), 97);
        assert!(counts[0] >= counts[9]);
        // Largest-remainder never drops below the floor of the exact share.
        for (v, &c) in counts.iter().enumerate() {
            assert!(c as f64 >= (catalog.share(v) * 97.0).floor());
        }
    }

    #[test]
    fn sampling_tracks_the_shares() {
        let catalog = ZipfCatalog::new(4, 1.2);
        let mut rng = SimRng::seed_from(7);
        let mut hits = [0usize; 4];
        for _ in 0..20_000 {
            hits[catalog.sample(&mut rng)] += 1;
        }
        for (v, &count) in hits.iter().enumerate() {
            let observed = count as f64 / 20_000.0;
            assert!(
                (observed - catalog.share(v)).abs() < 0.02,
                "video {v}: observed {observed}, expected {}",
                catalog.share(v)
            );
        }
    }

    #[test]
    fn offsets_are_seeded_strictly_increasing_and_shape_sensitive() {
        let gap = Seconds::new(0.5);
        let steady = ArrivalShape::Steady.offsets(200, gap, 11);
        let again = ArrivalShape::Steady.offsets(200, gap, 11);
        assert_eq!(steady, again, "same seed must reproduce the schedule");
        for w in steady.windows(2) {
            assert!(w[1] > w[0]);
        }

        // A flash crowd concentrates the middle of the run: the median gap
        // inside the spike window is far smaller than the quiet head's.
        let crowd = ArrivalShape::FlashCrowd.offsets(400, gap, 11);
        assert_eq!(crowd.len(), 400);
        let span = 400.0 * gap.as_secs_f64();
        let quiet: Vec<f64> = crowd
            .iter()
            .map(|t| t.as_secs_f64())
            .filter(|t| *t < 0.4 * span)
            .collect();
        let spike: Vec<f64> = crowd
            .iter()
            .map(|t| t.as_secs_f64())
            .filter(|t| *t >= 0.4 * span && *t < 0.6 * span)
            .collect();
        // The spike window covers 20% of the span at 4x intensity: it should
        // hold several times the arrivals of the 40% quiet head at 0.25x.
        assert!(spike.len() > 2 * quiet.len());
    }

    #[test]
    fn ramp_mean_intensity_matches_base() {
        // Integrated relative intensity over the eight ramp steps is 1.0, so
        // n arrivals should land in roughly n * mean_gap seconds.
        let gap = Seconds::new(0.2);
        let offsets = ArrivalShape::Ramp.offsets(2_000, gap, 3);
        let last = offsets.last().unwrap().as_secs_f64();
        let expected = 2_000.0 * 0.2;
        assert!(
            (last / expected - 1.0).abs() < 0.15,
            "ramp run spanned {last}s, expected ~{expected}s"
        );
    }

    #[test]
    fn shape_parse_round_trips_cli_names() {
        assert_eq!(ArrivalShape::parse("steady").unwrap(), ArrivalShape::Steady);
        assert_eq!(ArrivalShape::parse("ramp").unwrap(), ArrivalShape::Ramp);
        assert_eq!(
            ArrivalShape::parse("flash-crowd").unwrap(),
            ArrivalShape::FlashCrowd
        );
        assert!(ArrivalShape::parse("bursty").is_err());
    }
}
