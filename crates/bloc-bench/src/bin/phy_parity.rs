//! Analytic vs full-IQ ("phy") sounding parity: localization accuracy with
//! both fidelity modes on the same geometry (DESIGN.md §6). The phy mode
//! modulates real localization packets through the GFSK chain, so this run
//! is slow — the location count is capped.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin phy_parity [locations]
//! ```

use bloc_chan::sounder::{Fidelity, SounderConfig};
use bloc_num::stats;
use bloc_testbed::dataset::sample_positions;
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let size = bloc_bench::size_from_args();
    let n = size.locations.min(24);
    bloc_bench::banner(
        "Analytic vs PHY fidelity parity",
        &bloc_testbed::experiments::ExperimentSize {
            locations: n,
            seed: size.seed,
        },
    );

    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, n, size.seed ^ 0x9F);
    let localizer = scenario.localizer();
    // Every 2nd channel keeps the 80 MHz span (Fig. 11) and halves runtime.
    let channels: Vec<_> = bloc_chan::sounder::all_data_channels()
        .into_iter()
        .filter(|c| c.freq_index() % 2 == 0)
        .collect();

    for (name, fidelity) in [
        ("analytic", Fidelity::Analytic),
        ("phy (GFSK IQ)", Fidelity::Phy { sps: 8 }),
    ] {
        let sounder = scenario.sounder(SounderConfig {
            fidelity,
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        let errs: Vec<f64> = positions
            .iter()
            .enumerate()
            .filter_map(|(idx, &truth)| {
                let mut rng = StdRng::seed_from_u64(size.seed ^ (idx as u64) << 4);
                let data = sounder.sound(truth, &channels, &mut rng);
                localizer
                    .localize(&data)
                    .ok()
                    .map(|e| e.position.dist(truth))
            })
            .collect();
        println!(
            "  {name:14} median {:.2} m  p90 {:.2} m  ({:.1?} total)",
            stats::median(&errs),
            stats::percentile(&errs, 90.0),
            t0.elapsed()
        );
    }
    println!("\n(the two modes should agree to within sweep noise: the analytic mode is\n what the 1700-location experiments use, the phy mode proves it is faithful)");
}
