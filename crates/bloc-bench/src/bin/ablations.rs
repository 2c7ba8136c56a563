//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! * score weights `a` (distance) and `b` (entropy) around the paper's
//!   `a = 0.1`, `b = 0.05`;
//! * entropy window size (5×5 / 7×7 / 9×9);
//! * antenna-combining mode (coherent Eq. 17 / non-coherent / hybrid);
//! * reflector realism: scattering clutter vs ideal mirrors — the latter
//!   removes the spatial spread the entropy heuristic feeds on;
//! * AoA baseline peak selection (least-pseudo-ToF vs strongest).
//!
//! ```text
//! cargo run --release -p bloc-bench --bin ablations [locations]
//! ```

use bloc_chan::sounder::SounderConfig;
use bloc_core::baselines::aoa;
use bloc_core::likelihood::AntennaCombining;
use bloc_core::BlocLocalizer;
use bloc_num::stats;
use bloc_testbed::dataset::sample_positions;
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let size = bloc_bench::size_from_args();
    let n = size.locations.min(400); // ablations are many sweeps; cap them
    bloc_bench::banner(
        "Ablations (DESIGN.md §6)",
        &bloc_testbed::experiments::ExperimentSize {
            locations: n,
            seed: size.seed,
        },
    );
    let obs_before = bloc_obs::Registry::global().snapshot();

    let scenario = Scenario::paper_testbed(size.seed);
    let positions = sample_positions(&scenario.room, n, size.seed ^ 0xAB);
    let sounder = scenario.sounder(SounderConfig::default());

    // Pre-sound once per location; every ablation reuses the soundings.
    println!("sounding {n} locations…");
    let soundings: Vec<_> = positions
        .iter()
        .enumerate()
        .map(|(idx, &p)| {
            let mut rng = StdRng::seed_from_u64(size.seed ^ (idx as u64).wrapping_mul(0x9E37));
            (
                p,
                sounder.sound(p, &bloc_chan::sounder::all_data_channels(), &mut rng),
            )
        })
        .collect();

    let median_with = |config: bloc_core::BlocConfig| -> f64 {
        // Every configuration runs on the scenario's engine, so the
        // steering tables are built once for the whole ablation, and the
        // workers below share them.
        let localizer = BlocLocalizer::new(config).with_engine(scenario.engine().clone());
        // Fan localization out across all cores.
        let errs: Vec<f64> = bloc_num::par::map_named(
            "ablation",
            soundings.len(),
            bloc_num::par::max_threads(),
            |idx| {
                let (truth, data) = &soundings[idx];
                localizer
                    .localize(data)
                    .ok()
                    .map(|e| e.position.dist(*truth))
            },
        )
        .into_iter()
        .flatten()
        .collect();
        stats::median(&errs)
    };
    let base = scenario.bloc_config();

    println!("\n-- score weight a (distance), b = 0.05 --");
    for a in [0.0, 0.05, 0.1, 0.2, 0.4] {
        println!(
            "  a = {a:4.2}  median {:.2} m",
            median_with(base.with_score_weights(a, 0.05))
        );
    }

    println!("\n-- score weight b (entropy), a = 0.1 --");
    for b in [0.0, 0.05, 0.1, 0.25, 0.5] {
        println!(
            "  b = {b:4.2}  median {:.2} m",
            median_with(base.with_score_weights(0.1, b))
        );
    }

    println!("\n-- entropy window radius (metres) --");
    for radius_m in [0.25f64, 0.5, 0.75, 1.0] {
        let mut c = base;
        c.score.entropy_radius_m = radius_m;
        println!("  ±{radius_m:.2} m window  median {:.2} m", median_with(c));
    }

    println!("\n-- antenna combining --");
    for (name, mode) in [
        ("coherent (Eq. 17)", AntennaCombining::Coherent),
        ("non-coherent", AntennaCombining::NoncoherentAntennas),
        ("hybrid (default)", AntennaCombining::Hybrid),
    ] {
        let mut c = base;
        c.combining = mode;
        println!("  {name:20} median {:.2} m", median_with(c));
    }

    println!("\n-- corrected-channel normalization --");
    for (name, norm) in [("normalized |α| = 1", true), ("raw Eq. 10 α", false)] {
        let mut c = base;
        c.normalize_alpha = norm;
        println!("  {name:20} median {:.2} m", median_with(c));
    }

    println!("\n-- AoA baseline peak selection --");
    for (name, selection) in [
        (
            "least pseudo-ToF (paper)",
            aoa::PeakSelection::LeastPseudoTof,
        ),
        ("strongest peak", aoa::PeakSelection::Strongest),
    ] {
        let cfg = aoa::AoaConfig {
            selection,
            ..Default::default()
        };
        let errs: Vec<f64> = soundings
            .iter()
            .filter_map(|(truth, data)| aoa::localize(data, &cfg).map(|p| p.dist(*truth)))
            .collect();
        println!("  {name:26} median {:.2} m", stats::median(&errs));
    }

    // Reflector realism: rebuild the environment with ideal mirrors and
    // compare the entropy term's usefulness (b = 0.05 vs b = 0).
    println!("\n-- reflector realism (scatter vs ideal mirrors) --");
    {
        use bloc_chan::materials::Material;
        use bloc_chan::reflector::Reflector;
        use bloc_chan::Environment;

        let mut rng = StdRng::seed_from_u64(size.seed);
        let mut env = Environment::in_room(scenario.room);
        // Same wall/clutter layout, but every surface an ideal mirror.
        for wall in scenario.room.walls() {
            env.add_reflector(Reflector::new(wall, Material::ideal_mirror(), &mut rng));
        }
        let anchors = scenario.anchors.clone();
        let mirror_sounder = bloc_chan::Sounder::new(&env, &anchors, SounderConfig::default());
        let mirror_soundings: Vec<_> = positions
            .iter()
            .take(n.min(150))
            .enumerate()
            .map(|(idx, &p)| {
                let mut rng = StdRng::seed_from_u64(size.seed ^ (idx as u64) << 8);
                (
                    p,
                    mirror_sounder.sound(p, &bloc_chan::sounder::all_data_channels(), &mut rng),
                )
            })
            .collect();
        for (name, b) in [("entropy on (b=0.05)", 0.05), ("entropy off (b=0)", 0.0)] {
            let localizer = BlocLocalizer::new(base.with_score_weights(0.1, b))
                .with_engine(scenario.engine().clone());
            let errs: Vec<f64> = bloc_num::par::map_named(
                "ablation",
                mirror_soundings.len(),
                bloc_num::par::max_threads(),
                |idx| {
                    let (truth, d) = &mirror_soundings[idx];
                    localizer.localize(d).ok().map(|e| e.position.dist(*truth))
                },
            )
            .into_iter()
            .flatten()
            .collect();
            println!("  mirrors, {name:22} median {:.2} m", stats::median(&errs));
        }
        println!("  (with ideal mirrors the entropy term has nothing to detect — the\n   deltas above shrink relative to the scattering room)");
    }

    bloc_bench::emit_run_report("ablations", &obs_before);
}
