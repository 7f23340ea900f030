//! Fracturing configuration.

use maskfrac_ebeam::ExposureModel;
use maskfrac_graph::ColoringStrategy;

/// Engine that computes the initial whole-frame intensity seed at the
/// start of a refinement run (CLI: `--intensity-backend`).
///
/// Every backend feeds the same incremental refinement machinery — the
/// choice only affects how the map is *seeded*, which dominates on
/// heavily fractured frames where the per-shot-window rebuild is
/// `O(shots · window)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntensityBackend {
    /// Shot-by-shot separable windowed accumulation — the bit-exact
    /// default tier the parity harness and CI baselines pin.
    #[default]
    Separable,
    /// Whole-frame FFT synthesis (`maskfrac_ebeam::fft`):
    /// `O(frame · log frame)` independent of the shot count. Carries the
    /// relaxed exactness contract — seeded values differ from the
    /// separable tier by the `3σ` window-truncation residue — and is
    /// therefore guarded by the same safety net as relaxed scoring: an
    /// FFT-seeded run that ends infeasible is re-run from the exact
    /// separable seed and the better solution wins.
    Fft,
}

/// All tunable parameters of the model-based fracturer.
///
/// Defaults reproduce the paper's evaluation setup: CD tolerance
/// `γ = 2 nm`, kernel `σ = 6.25 nm`, pixel pitch `Δp = 1 nm`, threshold
/// `ρ = 0.5`, with the simple sequential coloring heuristic and the 80 % /
/// 90 % overlap criteria of §3 and §4.5.
///
/// # Example
///
/// ```
/// use maskfrac_fracture::FractureConfig;
///
/// let config = FractureConfig { max_iterations: 100, ..FractureConfig::default() };
/// assert_eq!(config.gamma, 2.0);
/// assert_eq!(config.sigma, 6.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FractureConfig {
    /// CD tolerance `γ` in nm: half-width of the don't-care band and the
    /// RDP simplification tolerance.
    pub gamma: f64,
    /// Proximity-kernel parameter `σ` in nm.
    pub sigma: f64,
    /// Print threshold `ρ`.
    pub rho: f64,
    /// Minimum shot side `Lmin` in nm.
    pub min_shot_size: i64,
    /// Maximum refinement iterations `Nmax`.
    pub max_iterations: usize,
    /// Non-improving iterations `NH` before a shot is added or removed.
    pub stall_window: usize,
    /// Early-stop bound: consecutive shot-add/remove (plateau-restart)
    /// events without improving the best failing-pixel count before
    /// refinement gives up and returns the best solution seen. The paper
    /// runs to `Nmax` regardless; bounding the restarts avoids burning the
    /// whole budget cycling on infeasible residues.
    pub max_plateau_restarts: usize,
    /// Coloring heuristic for the clique-partition step.
    pub coloring: ColoringStrategy,
    /// Minimum fraction of a candidate test shot that must overlap the
    /// target for a graph edge (paper §3: 80 %).
    pub shot_overlap_fraction: f64,
    /// Minimum inside fraction for an extension-merge of two aligned shots
    /// (paper §4.5: 90 %).
    pub merge_overlap_fraction: f64,
    /// Overrides the model-derived `Lth` (nm) when set; mainly for tests
    /// and ablations.
    pub lth_override: Option<f64>,
    /// Run the post-feasibility shot-reduction sweep
    /// ([`crate::refine::reduce_shots`], an extension beyond the paper's
    /// Algorithm 1) at the end of the pipeline.
    pub reduction_sweep: bool,
    /// Wall-clock budget for one shape. When it expires mid-refinement the
    /// pipeline stops and returns the best solution seen so far, tagged
    /// [`crate::FractureStatus::Degraded`] if that solution is not
    /// feasible. `None` (the default) means unbounded, as in the paper.
    pub deadline: Option<std::time::Duration>,
    /// Selects the greedy-adjustment engine inside refinement. `true`
    /// (the default) runs the incremental dirty-window engine: candidate
    /// edge moves are cached per shot and only re-scored when an accepted
    /// move's support window could have changed their score. `false`
    /// re-scores every candidate on every pass (the reference path).
    /// Both engines produce byte-identical shot lists; the flag exists
    /// for A/B benchmarking and for the parity tests that prove it.
    pub incremental_refine: bool,
    /// Largest allowed side of a target's bounding box in nm; the
    /// validation front-door ([`crate::validate::validate_target`])
    /// rejects bigger shapes, which belong to clip-level partitioning, not
    /// the per-shape pipeline (whose intensity map is dense in the bbox).
    pub max_extent: i64,
    /// Coarse-to-fine refinement factor `k` (CLI: `--coarse-factor`).
    ///
    /// `1` (the default) runs refinement at the paper's 1 nm pixel pitch
    /// only and is byte-identical to the legacy path. `2..=4` first runs a
    /// scaled-down copy of the whole problem at `k` nm pitch (coarse
    /// classification by `k×k` block reduction, kernel `σ/k`, shot
    /// coordinates `÷k`), then re-seeds the full-resolution run with the
    /// coarse solution scaled back up and polishes at Δp = 1 nm. Each
    /// coarse iteration walks ~`k²` fewer pixels; the fine polish starts
    /// near-converged. The coarse tier always uses the relaxed scoring
    /// kernels (see [`relaxed_scoring`](Self::relaxed_scoring)) — only the
    /// fine polish is held to the configured exactness tier, so the final
    /// shot list is always evaluated at full resolution. See
    /// `docs/performance.md` for when this is safe and how parity is
    /// gated.
    ///
    /// ```
    /// use maskfrac_fracture::FractureConfig;
    ///
    /// let cfg = FractureConfig { coarse_factor: 4, ..FractureConfig::default() };
    /// assert!(cfg.validate().is_ok());
    /// ```
    pub coarse_factor: usize,
    /// Opt into the relaxed-exactness scoring kernels.
    ///
    /// `false` (the default) keeps the bit-exact hot path: candidate
    /// scores and map updates reproduce the legacy accumulation order to
    /// the last ULP, which is what the PR 3/4 parity harness and the CI
    /// shot-count baselines gate on. `true` enables two documented
    /// relaxations on the scoring/update kernels — integer-lattice edge
    /// profiles (direct `erf` table, no LUT interpolation) and multi-lane
    /// chunk accumulation (summation-order change of at most a few ULPs
    /// per strip) — which are faster but may steer greedy tie-breaks onto
    /// a different, equally feasible shot list. See `docs/performance.md`.
    ///
    /// ```
    /// use maskfrac_fracture::FractureConfig;
    ///
    /// let cfg = FractureConfig { relaxed_scoring: true, ..FractureConfig::default() };
    /// assert!(cfg.validate().is_ok());
    /// assert!(!FractureConfig::default().relaxed_scoring, "exact by default");
    /// ```
    pub relaxed_scoring: bool,
    /// Engine for the initial whole-frame intensity seed (CLI:
    /// `--intensity-backend {separable,fft}`). See [`IntensityBackend`];
    /// the default keeps the bit-exact separable path.
    ///
    /// ```
    /// use maskfrac_fracture::{FractureConfig, IntensityBackend};
    ///
    /// let cfg = FractureConfig { intensity_backend: IntensityBackend::Fft, ..FractureConfig::default() };
    /// assert!(cfg.validate().is_ok());
    /// assert_eq!(FractureConfig::default().intensity_backend, IntensityBackend::Separable);
    /// ```
    pub intensity_backend: IntensityBackend,
}

impl Default for FractureConfig {
    fn default() -> Self {
        FractureConfig {
            gamma: 2.0,
            sigma: 6.25,
            rho: 0.5,
            min_shot_size: 10,
            max_iterations: 1200,
            stall_window: 10,
            max_plateau_restarts: 8,
            coloring: ColoringStrategy::Sequential,
            shot_overlap_fraction: 0.8,
            merge_overlap_fraction: 0.9,
            lth_override: None,
            reduction_sweep: true,
            deadline: None,
            incremental_refine: true,
            max_extent: 4096,
            coarse_factor: 1,
            relaxed_scoring: false,
            intensity_backend: IntensityBackend::Separable,
        }
    }
}

impl FractureConfig {
    /// Builds the exposure model for these parameters.
    pub fn model(&self) -> ExposureModel {
        ExposureModel::new(self.sigma, self.rho)
    }

    /// Resolves `Lth`: the override if set, otherwise the model-derived
    /// value (see [`maskfrac_ebeam::lth::compute_lth`]).
    pub fn resolve_lth(&self) -> f64 {
        self.lth_override
            .unwrap_or_else(|| maskfrac_ebeam::lth::compute_lth(&self.model(), self.gamma))
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first offending field.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` also rejects NaN
    pub fn validate(&self) -> Result<(), String> {
        if !(self.gamma > 0.0) {
            return Err("gamma must be positive".into());
        }
        if !(self.sigma > 0.0) {
            return Err("sigma must be positive".into());
        }
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err("rho must be in (0, 1)".into());
        }
        if self.min_shot_size < 1 {
            return Err("min_shot_size must be at least 1 nm".into());
        }
        if !(0.0..=1.0).contains(&self.shot_overlap_fraction) {
            return Err("shot_overlap_fraction must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.merge_overlap_fraction) {
            return Err("merge_overlap_fraction must be in [0, 1]".into());
        }
        if self.stall_window == 0 {
            return Err("stall_window must be at least 1".into());
        }
        if self.max_plateau_restarts == 0 {
            return Err("max_plateau_restarts must be at least 1".into());
        }
        if self.max_extent < self.min_shot_size {
            return Err("max_extent must be at least min_shot_size".into());
        }
        if !(1..=4).contains(&self.coarse_factor) {
            return Err("coarse_factor must be in 1..=4".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FractureConfig::default();
        assert_eq!(c.gamma, 2.0);
        assert_eq!(c.sigma, 6.25);
        assert_eq!(c.rho, 0.5);
        assert_eq!(c.shot_overlap_fraction, 0.8);
        assert_eq!(c.merge_overlap_fraction, 0.9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn model_round_trip() {
        let c = FractureConfig::default();
        let m = c.model();
        assert_eq!(m.sigma(), c.sigma);
        assert_eq!(m.rho(), c.rho);
    }

    #[test]
    fn lth_override_wins() {
        let c = FractureConfig {
            lth_override: Some(7.5),
            ..FractureConfig::default()
        };
        assert_eq!(c.resolve_lth(), 7.5);
    }

    #[test]
    fn resolve_lth_from_model_is_positive() {
        let c = FractureConfig::default();
        let lth = c.resolve_lth();
        assert!(lth > 0.0 && lth < 5.0 * c.sigma);
    }

    #[test]
    fn refine_engine_defaults() {
        let c = FractureConfig::default();
        assert!(c.incremental_refine, "incremental engine is the default");
    }

    #[test]
    fn validation_catches_each_field() {
        let base = FractureConfig::default();
        let bad = [
            FractureConfig { gamma: 0.0, ..base.clone() },
            FractureConfig { sigma: -1.0, ..base.clone() },
            FractureConfig { rho: 1.0, ..base.clone() },
            FractureConfig { min_shot_size: 0, ..base.clone() },
            FractureConfig { shot_overlap_fraction: 1.5, ..base.clone() },
            FractureConfig { merge_overlap_fraction: -0.1, ..base.clone() },
            FractureConfig { stall_window: 0, ..base.clone() },
            FractureConfig { max_plateau_restarts: 0, ..base.clone() },
            FractureConfig { max_extent: 5, ..base.clone() },
            FractureConfig { coarse_factor: 0, ..base.clone() },
            FractureConfig { coarse_factor: 5, ..base.clone() },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should fail validation");
        }
    }
}
