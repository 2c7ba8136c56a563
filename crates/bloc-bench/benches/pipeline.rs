//! Criterion benches of the localization pipeline stages: sounding,
//! offset correction, likelihood grids, peak scoring, full localization,
//! and the baselines.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bloc_chan::sounder::{all_data_channels, SounderConfig};
use bloc_core::baselines::{aoa, rssi};
use bloc_core::correction::correct;
use bloc_core::likelihood::{anchor_likelihood, joint_likelihood, AntennaCombining};
use bloc_core::multipath::{score_peaks, ScoreConfig};
use bloc_num::P2;
use bloc_testbed::scenario::Scenario;
use rand::{rngs::StdRng, SeedableRng};

fn bench_pipeline(c: &mut Criterion) {
    let scenario = Scenario::paper_testbed(2018);
    let sounder = scenario.sounder(SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    let tag = P2::new(2.1, 3.2);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);
    let localizer = scenario.localizer();
    let corrected = correct(&data, true).expect("bench sounding is clean");
    let grid_spec = scenario.bloc_config().grid;
    let grid = joint_likelihood(&corrected, grid_spec, AntennaCombining::Hybrid);
    let anchor_refs: Vec<P2> = scenario.anchors.iter().map(|a| a.center()).collect();

    c.bench_function("sound_37_bands_analytic", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(2),
            |mut rng| black_box(sounder.sound(tag, &all_data_channels(), &mut rng)),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("offset_correction_37x4x4", |b| {
        b.iter(|| black_box(correct(black_box(&data), true)))
    });

    c.bench_function("anchor_likelihood_grid", |b| {
        b.iter(|| {
            black_box(anchor_likelihood(
                &corrected,
                1,
                grid_spec,
                AntennaCombining::Hybrid,
            ))
        })
    });

    c.bench_function("joint_likelihood_4_anchors", |b| {
        b.iter(|| {
            black_box(joint_likelihood(
                &corrected,
                grid_spec,
                AntennaCombining::Hybrid,
            ))
        })
    });

    c.bench_function("peak_scoring", |b| {
        b.iter(|| black_box(score_peaks(&grid, &anchor_refs, &ScoreConfig::default())))
    });

    c.bench_function("bloc_localize_full", |b| {
        b.iter(|| black_box(localizer.localize(black_box(&data))))
    });

    c.bench_function("aoa_baseline_localize", |b| {
        b.iter(|| black_box(aoa::localize(black_box(&data), &aoa::AoaConfig::default())))
    });

    c.bench_function("rssi_baseline_localize", |b| {
        b.iter(|| {
            black_box(rssi::localize(
                black_box(&data),
                &rssi::RssiConfig::default(),
            ))
        })
    });
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline
}
criterion_main!(pipeline);
