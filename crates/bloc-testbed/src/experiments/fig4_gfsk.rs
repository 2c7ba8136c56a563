//! Fig. 4: GFSK frequency behaviour — random data never settles, BLoc's
//! long 0/1 runs settle at the tones.

use serde::{Deserialize, Serialize};

use bloc_phy::frequency::settled_regions;
use bloc_phy::modulator::{GfskModulator, ModulatorConfig};

use super::ExperimentSize;

/// Result of the Fig. 4 microbenchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Normalized frequency waveform of pseudo-random bits (Fig. 4a), one
    /// value per sample.
    pub random_waveform: Vec<f64>,
    /// Normalized frequency waveform of the 0/1-run pattern (Fig. 4b).
    pub runs_waveform: Vec<f64>,
    /// Fraction of samples settled at a tone, random data.
    pub random_settled_fraction: f64,
    /// Fraction of samples settled at a tone, run pattern.
    pub runs_settled_fraction: f64,
}

/// Runs the experiment (size is ignored: this is a pure PHY
/// microbenchmark, kept for interface uniformity).
pub fn run(_size: &ExperimentSize) -> Fig4Result {
    let modem = GfskModulator::new(ModulatorConfig::default());
    let fs = modem.config().sample_rate();

    // Fig. 4(a): pseudo-random payload bits.
    let random_bits: Vec<bool> = (0u32..40)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) & 1 == 1)
        .collect();
    // Fig. 4(b): 5-bit runs, as illustrated in the paper.
    let mut run_bits = Vec::new();
    for _ in 0..4 {
        run_bits.extend(std::iter::repeat_n(false, 5));
        run_bits.extend(std::iter::repeat_n(true, 5));
    }

    let settled_fraction = |bits: &[bool]| {
        let iq = modem.modulate(bits);
        let settled: usize = settled_regions(&iq, fs, 10e3, 8)
            .iter()
            .map(|r| r.len)
            .sum();
        settled as f64 / iq.len() as f64
    };

    Fig4Result {
        random_waveform: modem.frequency_waveform(&random_bits),
        runs_waveform: modem.frequency_waveform(&run_bits),
        random_settled_fraction: settled_fraction(&random_bits),
        runs_settled_fraction: settled_fraction(&run_bits),
    }
}

impl Fig4Result {
    /// Renders the paper-style summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Fig. 4 — GFSK settling (paper: runs settle, random data never does)\n");
        out.push_str(&format!(
            "  settled fraction: random bits {:5.1} %   0/1 runs {:5.1} %\n",
            100.0 * self.random_settled_fraction,
            100.0 * self.runs_settled_fraction
        ));
        out.push_str("  run-pattern waveform (one char per symbol, -=0 tone, +=1 tone):\n    ");
        for chunk in self.runs_waveform.chunks(8) {
            let m = chunk.iter().sum::<f64>() / chunk.len() as f64;
            out.push(if m > 0.9 {
                '+'
            } else if m < -0.9 {
                '-'
            } else {
                '~'
            });
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_settle_random_does_not() {
        let r = run(&ExperimentSize::smoke());
        assert!(
            r.runs_settled_fraction > 0.4,
            "runs: {}",
            r.runs_settled_fraction
        );
        assert!(
            r.runs_settled_fraction > 3.0 * r.random_settled_fraction,
            "runs {} vs random {}",
            r.runs_settled_fraction,
            r.random_settled_fraction
        );
        let art = r.render();
        assert!(art.contains('+') && art.contains('-'));
    }
}
