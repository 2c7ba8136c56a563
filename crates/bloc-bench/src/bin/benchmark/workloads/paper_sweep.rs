//! `paper_sweep` — the figure-regeneration path.
//!
//! `runner::sweep` runs `Method::Bloc` over batches of seeded locations in
//! `Scenario::paper_testbed`: a clean 8 cm dense grid, every core, no
//! supervision and no hierarchy. The dense Eq. 17 kernel dominates busy
//! time, with sounding a distant second. One timed call is one sweep over
//! one batch; each call builds its own localizer and per-worker sounders,
//! exactly as every figure binary does.

use std::time::Instant;

use bloc_num::seed::stream_seed;
use bloc_testbed::dataset::sample_positions;
use bloc_testbed::runner::{sweep, Method, SweepSpec};
use bloc_testbed::Scenario;

use super::{bench_span, ms_since, Observed, Pass};

/// The testbed room's seed: the venue is fixed, `--seed` picks the tags.
pub const VENUE_SEED: u64 = 2018;

/// Seed-stream axes, so positions and sounding noise never share a stream.
const POSITIONS: u64 = 1;
const NOISE: u64 = 2;

/// Set-up state: the venue and the seed the batches derive from.
pub struct PaperSweep {
    scenario: Scenario,
    seed: u64,
    batch: usize,
}

impl PaperSweep {
    /// Builds the testbed and sweeps one warm-up batch outside the timing.
    pub fn setup(seed: u64, batch: usize) -> Self {
        let mut bench = Self {
            scenario: Scenario::paper_testbed(VENUE_SEED),
            seed,
            batch,
        };
        bench.run(false, &mut Pass::new(1));
        bench
    }

    pub(super) fn run(&mut self, traced: bool, pass: &mut Pass) -> Observed {
        let grid = self.scenario.bloc_config().grid;
        let mut index = 0;
        while pass.more() {
            let positions = sample_positions(
                &self.scenario.room,
                self.batch,
                stream_seed(self.seed, POSITIONS, index, 0),
            );
            let spec = SweepSpec::standard(
                &self.scenario,
                &positions,
                vec![Method::Bloc],
                stream_seed(self.seed, NOISE, index, 0),
            );
            let t = Instant::now();
            let out = {
                let _span = bench_span(traced, "bench.runner");
                sweep(&spec)
            };
            pass.end_step(&[ms_since(t)]);
            for rec in &out[0].records {
                pass.record(0, rec.estimate, rec.truth, &grid);
            }
            index += 1;
        }
        vec![
            ("sweep.locations".into(), pass.attempted),
            ("localize.calls".into(), pass.attempted),
            ("runtime.rounds".into(), 0),
        ]
    }
}
