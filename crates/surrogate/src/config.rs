//! Tuning knobs of the two-tier surrogate.

use serde::{Deserialize, Serialize};

/// Configuration of the multi-fidelity thermal surrogate.
///
/// The defaults were chosen on the fig5/fig8 validation sweeps (see the
/// `surrogate_validation` bench binary): they keep the verified-candidate
/// prediction error within the paper's uncertainty while skipping the
/// large majority of exact solves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// Screening margin for the *uncorrected* kernel: even before the
    /// residual corrector is trusted, a raw superposition prediction more
    /// than this far above the threshold is skipped. The raw kernel's
    /// bias is bounded (a degree or two on the validation sweeps), so a
    /// generous margin makes warm-up skips safe.
    pub raw_guard_band_c: f64,
    /// Maximum feature-space distance to the nearest training sample for
    /// the residual corrector to be trusted. Beyond it (or before
    /// [`Self::min_samples`] observations) every prediction falls back to
    /// the exact solver.
    pub trust_radius: f64,
    /// Observations required per benchmark before the corrector is
    /// trusted at all (the warm-up exact solves double as training data).
    pub min_samples: usize,
    /// Iterations of the cheap per-chiplet temperature–leakage fixed
    /// point run on top of the superposed linear response.
    pub refine_iters: usize,
    /// Probe points per axis on each chiplet when searching the
    /// superposed field for its peak (`probes_per_axis²` samples each).
    pub probes_per_axis: usize,
    /// Neighbors consulted by the k-nearest-neighbor residual corrector.
    pub knn_k: usize,
    /// Gaussian bandwidth of the corrector's distance weights.
    pub kernel_bandwidth: f64,
    /// Residual samples retained per benchmark (oldest overwritten
    /// first; keeps the linear-scan kNN bounded).
    pub max_samples: usize,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            raw_guard_band_c: 12.0,
            trust_radius: 0.35,
            min_samples: 8,
            refine_iters: 3,
            probes_per_axis: 5,
            knn_k: 8,
            kernel_bandwidth: 0.15,
            max_samples: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SurrogateConfig::default();
        assert!(c.raw_guard_band_c > 0.0);
        assert!(c.trust_radius > 0.0);
        assert!(c.min_samples > 0 && c.min_samples <= c.max_samples);
        assert!(c.refine_iters >= 1);
        assert!(c.probes_per_axis >= 2);
        assert!(c.knn_k >= 1);
        assert!(c.kernel_bandwidth > 0.0);
    }
}
