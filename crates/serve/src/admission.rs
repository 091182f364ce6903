//! Admission control: a bounded logical queue with load-shedding and a
//! degradation threshold.
//!
//! The replay engine must produce bit-identical admission decisions at any
//! thread count, so admission is modeled over *logical work units* rather
//! than wall-clock queue depth: each request carries a deterministic cost
//! (derived from its solver and budget, or an explicit `cost` override),
//! the model drains a fixed number of units per request step, and the
//! verdict is a pure function of the running backlog. Both front ends step
//! it through the engine's plan step: replay in request order, the live
//! socket's single worker thread in arrival order (its own model, no
//! lock), so one policy answers both.
//!
//! The ladder has three rungs:
//!
//! 1. **Admit** — backlog is low; the requested solver runs under its
//!    deadline policy.
//! 2. **Degrade** — backlog crossed the degrade threshold; the request is
//!    answered by the cheap fallback engine (top-degree for MCP, the
//!    preloaded RR sketch for IM) and the response says so.
//! 3. **Shed** — backlog would overflow the bounded queue; the request is
//!    refused with a typed `shed` response and costs the server nothing.

/// Tunable admission thresholds, in logical work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Backlog bound: a request that would push past this is shed.
    pub queue_capacity: u64,
    /// Backlog level beyond which requests are degraded instead of served.
    pub degrade_threshold: u64,
    /// Units drained from the backlog per request step (the logical
    /// service rate).
    pub drain_per_step: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 96,
            degrade_threshold: 48,
            drain_per_step: 3,
        }
    }
}

/// Admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Run the requested solver.
    Admit,
    /// Answer via the fallback engine; the response reports the downgrade.
    Degrade,
    /// Refuse with a typed `shed` response.
    Shed,
}

/// The deterministic load model: backlog in work units.
#[derive(Debug, Clone)]
pub struct LoadModel {
    cfg: AdmissionConfig,
    backlog: u64,
}

impl LoadModel {
    /// Fresh model with zero backlog.
    pub fn new(cfg: AdmissionConfig) -> LoadModel {
        LoadModel { cfg, backlog: 0 }
    }

    /// Advances the model by one request of the given cost and returns its
    /// verdict. Pure state machine: identical request sequences produce
    /// identical verdict sequences.
    ///
    /// Admitted *and* degraded requests occupy their full cost in the
    /// queue — degradation changes the answer path, not queue occupancy —
    /// so sustained overload walks the full ladder down to shedding. Shed
    /// requests add nothing, which is what lets an idle stretch recover.
    pub fn step(&mut self, cost: u64) -> AdmissionVerdict {
        self.backlog = self.backlog.saturating_sub(self.cfg.drain_per_step);
        let would_be = self.backlog.saturating_add(cost);
        if would_be > self.cfg.queue_capacity {
            AdmissionVerdict::Shed
        } else if would_be > self.cfg.degrade_threshold {
            self.backlog = would_be;
            AdmissionVerdict::Degrade
        } else {
            self.backlog = would_be;
            AdmissionVerdict::Admit
        }
    }

    /// Current backlog, in work units.
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// The configured thresholds.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_load_admits_everything() {
        let mut m = LoadModel::new(AdmissionConfig::default());
        for _ in 0..100 {
            assert_eq!(m.step(2), AdmissionVerdict::Admit);
        }
        assert!(m.backlog() <= 2);
    }

    #[test]
    fn burst_walks_the_ladder_then_recovers() {
        let cfg = AdmissionConfig {
            queue_capacity: 20,
            degrade_threshold: 10,
            drain_per_step: 1,
        };
        let mut m = LoadModel::new(cfg);
        let mut seen = Vec::new();
        for _ in 0..12 {
            seen.push(m.step(4));
        }
        assert!(seen.contains(&AdmissionVerdict::Admit));
        assert!(seen.contains(&AdmissionVerdict::Degrade));
        assert!(seen.contains(&AdmissionVerdict::Shed), "{seen:?}");
        // Verdicts only walk down the ladder under constant pressure.
        let first_degrade = seen
            .iter()
            .position(|v| *v == AdmissionVerdict::Degrade)
            .expect("invariant: asserted above");
        assert!(seen[..first_degrade]
            .iter()
            .all(|v| *v == AdmissionVerdict::Admit));
        // Shed requests add nothing, so an idle stretch drains the backlog
        // and service recovers.
        for _ in 0..30 {
            m.step(0);
        }
        assert_eq!(m.step(4), AdmissionVerdict::Admit);
    }

    #[test]
    fn identical_sequences_give_identical_verdicts() {
        let costs = [3u64, 9, 1, 14, 14, 14, 2, 30, 1, 1];
        let run = || -> Vec<AdmissionVerdict> {
            let mut m = LoadModel::new(AdmissionConfig::default());
            costs.iter().map(|&c| m.step(c)).collect()
        };
        assert_eq!(run(), run());
    }
}
