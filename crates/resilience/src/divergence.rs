//! Numeric divergence detection with a bounded recovery budget.
//!
//! Training loops feed their per-episode loss (and optionally a gradient
//! norm) to a [`DivergenceGuard`]. A NaN/Inf value, or one beyond 1e6 in
//! magnitude, yields [`Verdict::Recover`] until three recoveries are spent,
//! then [`Verdict::Exhausted`] — the caller maps those to "roll back +
//! halve LR" and a typed train error respectively. The guard is pure
//! bookkeeping: it owns no parameters, so it works across otherwise
//! incompatible solver substrates.

/// Absolute loss magnitude treated as an explosion (on top of NaN/Inf).
const LOSS_LIMIT: f64 = 1e6;
/// Gradient-norm magnitude treated as an explosion.
const GRAD_NORM_LIMIT: f64 = 1e6;
/// Recoveries allowed before the run is declared failed.
const MAX_RECOVERIES: u32 = 3;

/// Outcome of one [`DivergenceGuard::observe`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The step is numerically sound.
    Healthy,
    /// Divergence detected; budget remains — roll back and continue.
    Recover {
        /// 1-based index of this recovery.
        recovery: u32,
    },
    /// Divergence detected and the budget is spent.
    Exhausted,
}

/// Divergence detector shared by all DRL training loops; `default()` has
/// no recoveries spent.
#[derive(Debug, Clone, Default)]
pub struct DivergenceGuard {
    recoveries: u32,
}

impl DivergenceGuard {
    /// Recoveries consumed so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// True when `value` is NaN, infinite, or beyond `limit` in magnitude.
    pub fn is_divergent(value: f64, limit: f64) -> bool {
        !value.is_finite() || value.abs() > limit
    }

    /// Classifies one training step from its loss and (optionally) gradient
    /// norm, consuming one unit of budget when divergent.
    pub fn observe(&mut self, loss: f64, grad_norm: Option<f64>) -> Verdict {
        let diverged = Self::is_divergent(loss, LOSS_LIMIT)
            || grad_norm.is_some_and(|g| Self::is_divergent(g, GRAD_NORM_LIMIT));
        if !diverged {
            return Verdict::Healthy;
        }
        if self.recoveries >= MAX_RECOVERIES {
            return Verdict::Exhausted;
        }
        self.recoveries += 1;
        Verdict::Recover {
            recovery: self.recoveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_steps_cost_nothing() {
        let mut g = DivergenceGuard::default();
        for loss in [0.0, 1.5, -3.0, 999.0] {
            assert_eq!(g.observe(loss, Some(10.0)), Verdict::Healthy);
        }
        assert_eq!(g.recoveries(), 0);
    }

    #[test]
    fn nan_inf_and_explosions_trigger_recovery() {
        let mut g = DivergenceGuard::default();
        assert_eq!(g.observe(f64::NAN, None), Verdict::Recover { recovery: 1 });
        assert_eq!(
            g.observe(f64::INFINITY, None),
            Verdict::Recover { recovery: 2 }
        );
        assert_eq!(g.observe(1e9, None), Verdict::Recover { recovery: 3 });
        assert_eq!(g.observe(f64::NAN, None), Verdict::Exhausted);
        assert_eq!(g.recoveries(), 3);
    }

    #[test]
    fn grad_norm_alone_can_diverge() {
        let mut g = DivergenceGuard::default();
        assert_eq!(
            g.observe(0.5, Some(1.01e6)),
            Verdict::Recover { recovery: 1 }
        );
        assert_eq!(g.observe(0.5, Some(0.99e6)), Verdict::Healthy);
    }
}
