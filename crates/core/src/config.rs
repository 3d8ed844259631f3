//! Hyper-parameters of the DeepDirect model (Table 1 / Sec. 6.1).

use dd_telemetry::ObserverHandle;
use serde::{Deserialize, Serialize};

/// Full configuration of DeepDirect.
///
/// Defaults follow Sec. 6.1: `l = 128`, `λ = 5`, `τ = 10`, with `α = 5` and
/// `β = 0.1` as the grid-search optima the ablations identify (Figs. 4–5).
/// `γ` (common neighbors sampled per undirected tie, Eq. 15) and the degree
/// threshold `T` (Eq. 16) are not given numeric values in the paper; the
/// defaults here were chosen by the same validation-split search and are
/// swept by the ablation benches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepDirectConfig {
    /// Embedding dimensionality `l`.
    pub dim: usize,
    /// Weight `α` of the labeled-data loss `L_label`.
    pub alpha: f32,
    /// Weight `β` of the pattern loss `L_pattern`.
    pub beta: f32,
    /// Number of negative samples `λ` per positive connected-tie pair.
    pub negatives: usize,
    /// Maximum common neighbors `γ` sampled into `t(u, v)` per undirected
    /// tie.
    pub gamma: usize,
    /// Epoch multiplier `τ`: the E-Step runs `τ · |C(G)|` SGD iterations.
    pub tau: f64,
    /// Hard cap on E-Step iterations, overriding `τ · |C(G)|` when smaller.
    /// `None` means no cap. Intended for tests and benches.
    pub max_iterations: Option<u64>,
    /// Degree-pattern threshold `T`: the `y^d` pseudo-label term only fires
    /// when `y^d_e > T` (Eq. 16).
    pub degree_threshold: f64,
    /// Initial E-Step learning rate, decayed linearly.
    pub lr: f32,
    /// Worker threads: the Hogwild E-Step's workers (`1` = sequential,
    /// and the only bit-reproducible setting for it) and the D-Step's
    /// parallel Newton passes, whose head is bit-identical at any count.
    pub threads: usize,
    /// RNG seed controlling initialization and sampling.
    pub seed: u64,
    /// At most this many D-Step Newton steps, one pass over the labeled
    /// ties each; the solve stops earlier once the gradient is at
    /// [`dstep::GRAD_TOL`](crate::dstep::GRAD_TOL). `0` keeps the E-Step's
    /// warm start `(w', b')`. (The name predates the Newton solve, which
    /// replaced SGD epochs; every stored `.ddm` config carries it.)
    pub dstep_epochs: usize,
    /// D-Step L2 strength `l2` of `(l2/2)·‖w − w'‖²`, which pulls the head
    /// towards the E-Step's `w'` (DESIGN.md §7.17). The default, 3e-2, is
    /// the smallest value on a grid of 1e-4 to 1e-1 whose held-out accuracy
    /// kept within 0.002 of the warm start's on all five analogs
    /// (EXPERIMENTS.md, "D-Step solver").
    pub dstep_l2: f32,
    /// Exponent of the negative-sampling noise distribution
    /// `P_n ∝ deg_tie^exponent` (word2vec's 3/4 by default). Ablation knob.
    pub noise_exponent: f64,
    /// Sample the focus tie uniformly instead of `P_c ∝ deg_tie`,
    /// removing the tie-degree weighting of Eqs. 13/16. Ablation knob.
    pub uniform_context_sampling: bool,
    /// Extension (not in the paper): feed the D-Step the concatenation
    /// `[m_e ‖ n_e]` instead of `m_e` alone. The connected-tie context of
    /// `(u, v)` covers only ties leaving the head `v`, so `m_e` carries
    /// head-side information only; the connection vector `n_e` aligns with
    /// ties *entering the tail* `u` and restores the tail side. See
    /// DESIGN.md §6.
    pub context_features: bool,
    /// E-Step iterations between progress reports when an observer is
    /// attached. `None` picks ~20 evenly spaced reports per run.
    pub progress_interval: Option<u64>,
    /// Monte-Carlo sample count per progress-loss estimate. Progress
    /// sampling reads the live parameters through the same estimator as
    /// [`estep::estimate_loss`](crate::estep::estimate_loss) and never
    /// perturbs the Hogwild updates.
    pub progress_samples: usize,
    /// Telemetry sink for training progress, spans, and epoch losses.
    /// Disabled (free) by default; not serialized with the config.
    #[serde(skip)]
    pub observer: ObserverHandle,
}

impl Default for DeepDirectConfig {
    fn default() -> Self {
        DeepDirectConfig {
            dim: 128,
            alpha: 5.0,
            beta: 0.1,
            negatives: 5,
            gamma: 10,
            tau: 10.0,
            max_iterations: None,
            degree_threshold: 0.6,
            lr: 0.05,
            threads: 1,
            seed: 0xdeed,
            dstep_epochs: 30,
            dstep_l2: 3e-2,
            noise_exponent: 0.75,
            uniform_context_sampling: false,
            context_features: false,
            progress_interval: None,
            progress_samples: 512,
            observer: ObserverHandle::none(),
        }
    }
}

impl DeepDirectConfig {
    /// A small, fast configuration for unit tests and examples: low
    /// dimension and a capped iteration count.
    pub fn fast() -> Self {
        DeepDirectConfig { dim: 32, tau: 5.0, max_iterations: Some(400_000), ..Default::default() }
    }

    /// Validates internal consistency; called by the trainer.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("embedding dimension must be positive".into());
        }
        if self.negatives == 0 {
            return Err("need at least one negative sample".into());
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err("alpha must be non-negative".into());
        }
        if !self.beta.is_finite() || self.beta < 0.0 {
            return Err("beta must be non-negative".into());
        }
        if !self.tau.is_finite() || self.tau <= 0.0 {
            return Err("tau must be positive".into());
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err("learning rate must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.degree_threshold) {
            return Err("degree threshold must be in [0, 1]".into());
        }
        if self.threads == 0 {
            return Err("need at least one thread".into());
        }
        if !self.dstep_l2.is_finite() || self.dstep_l2 < 0.0 {
            return Err("D-Step L2 strength must be non-negative".into());
        }
        if !self.noise_exponent.is_finite() || self.noise_exponent < 0.0 {
            return Err("noise exponent must be non-negative".into());
        }
        if self.progress_interval == Some(0) {
            return Err("progress interval must be positive".into());
        }
        if self.progress_samples == 0 {
            return Err("progress sampling needs at least one sample".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DeepDirectConfig::default();
        assert_eq!(c.dim, 128);
        assert_eq!(c.negatives, 5);
        assert_eq!(c.tau, 10.0);
        assert_eq!(c.alpha, 5.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fast_config_is_valid() {
        assert!(DeepDirectConfig::fast().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        for f in [
            |c: &mut DeepDirectConfig| c.dim = 0,
            |c: &mut DeepDirectConfig| c.negatives = 0,
            |c: &mut DeepDirectConfig| c.alpha = -1.0,
            |c: &mut DeepDirectConfig| c.beta = f32::NAN,
            |c: &mut DeepDirectConfig| c.tau = 0.0,
            |c: &mut DeepDirectConfig| c.lr = 0.0,
            |c: &mut DeepDirectConfig| c.degree_threshold = 1.5,
            |c: &mut DeepDirectConfig| c.threads = 0,
            |c: &mut DeepDirectConfig| c.dstep_l2 = f32::NAN,
            |c: &mut DeepDirectConfig| c.dstep_l2 = -1e-4,
            |c: &mut DeepDirectConfig| c.noise_exponent = -1.0,
            |c: &mut DeepDirectConfig| c.progress_interval = Some(0),
            |c: &mut DeepDirectConfig| c.progress_samples = 0,
        ] {
            let mut c = DeepDirectConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let c = DeepDirectConfig::fast();
        let s = serde_json::to_string(&c).unwrap();
        let c2: DeepDirectConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c2.dim, c.dim);
        assert_eq!(c2.max_iterations, c.max_iterations);
    }
}
