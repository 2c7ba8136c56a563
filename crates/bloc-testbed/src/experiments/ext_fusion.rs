//! Extension experiment (beyond the paper): multi-burst likelihood fusion.
//!
//! The paper localizes from one hop cycle and notes BLE completes ~40 of
//! them per second (§6). This experiment measures what the spare cycles
//! buy: median error versus the number of fused bursts per fix.

use serde::{Deserialize, Serialize};

use rand::{rngs::StdRng, SeedableRng};

use super::ExperimentSize;
use crate::dataset::sample_positions;
use crate::metrics::ErrorStats;
use crate::scenario::Scenario;

/// Stats at one burst count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusionStats {
    /// Bursts fused per fix.
    pub bursts: usize,
    /// Error statistics.
    pub stats: ErrorStats,
}

/// Result of the fusion extension experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtFusionResult {
    /// One entry per burst count (1, 2, 4).
    pub points: Vec<FusionStats>,
}

/// Runs the experiment: each location is sounded 4 times; fixes are made
/// from the first 1, 2 and all 4 bursts.
pub fn run(size: &ExperimentSize) -> ExtFusionResult {
    let scenario = Scenario::paper_testbed(size.seed);
    let sounder = scenario.sounder(Default::default());
    let localizer = scenario.localizer();
    let positions = sample_positions(&scenario.room, size.locations, size.seed ^ 0xF0);
    let channels = bloc_chan::sounder::all_data_channels();

    let burst_counts = [1usize, 2, 4];
    let mut errors: Vec<Vec<f64>> = vec![Vec::new(); burst_counts.len()];

    for (idx, &truth) in positions.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(size.seed ^ (idx as u64).wrapping_mul(0xF00D));
        let bursts: Vec<_> = (0..4)
            .map(|_| sounder.sound(truth, &channels, &mut rng))
            .collect();
        for (k, &n) in burst_counts.iter().enumerate() {
            if let Ok(est) = localizer.localize_fused(&bursts[..n]) {
                errors[k].push(est.position.dist(truth));
            }
        }
    }

    ExtFusionResult {
        points: burst_counts
            .iter()
            .zip(errors)
            .map(|(&bursts, errs)| FusionStats {
                bursts,
                stats: ErrorStats::from_errors(errs),
            })
            .collect(),
    }
}

impl ExtFusionResult {
    /// Renders the series.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Extension — multi-burst fusion (beyond the paper; §6's spare hop cycles)\n",
        );
        out.push_str("  bursts | median (m) | p90 (m)\n");
        for p in &self.points {
            out.push_str(&format!(
                "    {}    |   {:5.2}    |  {:5.2}\n",
                p.bursts, p.stats.median, p.stats.p90
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_does_not_hurt() {
        let r = run(&ExperimentSize {
            locations: 16,
            seed: 2018,
        });
        assert_eq!(r.points.len(), 3);
        let single = r.points[0].stats.median;
        let fused = r.points[2].stats.median;
        assert!(fused <= single + 0.1, "4-burst {fused} vs 1-burst {single}");
    }
}
