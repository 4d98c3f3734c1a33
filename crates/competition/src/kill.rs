//! The strategy-switch criteria of Section 3, defined once.
//!
//! Every runtime race in the engine — the Jscan's index scans, the join
//! competition, the union scan and the foreground processes of the
//! Section 7 tactics — kills a competitor by one of two rules:
//!
//! 1. **Projection** (two-stage competition): "The scan is terminated and
//!    discarded when the projected retrieval cost approaches (e.g.
//!    becomes 95% of) the guaranteed best retrieval cost."
//! 2. **Spend** (direct competition): "an index scan cost limit set to
//!    some proportion of the guaranteed best cost" cuts off a competitor
//!    whose own spend dominates an already-small guaranteed best.
//!
//! [`KillRules::PAPER`] holds the paper's thresholds; each call site
//! supplies its own projection, spend and guaranteed best.

/// Which kill criterion fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kill {
    /// The projected cost reached the switch threshold.
    Projected,
    /// The competitor's own spend reached the spend limit.
    Spent,
}

/// The two kill thresholds, as fractions of the guaranteed-best cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillRules {
    /// Projection criterion: kill at `projected >= switch_threshold × best`.
    pub switch_threshold: f64,
    /// Spend criterion: kill at `spent >= spend_limit × best`.
    pub spend_limit: f64,
}

impl KillRules {
    /// The paper's values: switch at 95% of the guaranteed best, cap a
    /// competitor's own spend at 50% of it.
    pub const PAPER: KillRules = KillRules {
        switch_threshold: 0.95,
        spend_limit: 0.5,
    };

    /// True when `projected` has reached the switch threshold of `best`.
    #[inline]
    pub fn projected_out(&self, projected: f64, best: f64) -> bool {
        projected >= self.switch_threshold * best
    }

    /// True when `spent` has reached the spend limit of `best`.
    #[inline]
    pub fn overspent(&self, spent: f64, best: f64) -> bool {
        spent >= self.spend_limit * best
    }

    /// Both criteria against one guaranteed best; the projection is
    /// checked first.
    #[inline]
    pub fn verdict(&self, projected: f64, spent: f64, best: f64) -> Option<Kill> {
        if self.projected_out(projected, best) {
            Some(Kill::Projected)
        } else if self.overspent(spent, best) {
            Some(Kill::Spent)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_projection_gets_abandoned() {
        let rules = KillRules::PAPER;
        assert_eq!(rules.verdict(95.0, 0.0, 100.0), Some(Kill::Projected));
        assert_eq!(rules.verdict(94.9, 0.0, 100.0), None);
    }

    #[test]
    fn spend_limit_cuts_off_expensive_scans() {
        let rules = KillRules::PAPER;
        assert_eq!(rules.verdict(10.0, 50.0, 100.0), Some(Kill::Spent));
        assert_eq!(rules.verdict(10.0, 49.9, 100.0), None);
    }

    #[test]
    fn tightened_guaranteed_best_kills_marginal_competitors() {
        let rules = KillRules::PAPER;
        assert_eq!(rules.verdict(80.0, 30.0, 100.0), None);
        assert_eq!(rules.verdict(80.0, 30.0, 84.0), Some(Kill::Projected));
        assert_eq!(rules.verdict(70.0, 30.0, 60.0), Some(Kill::Projected));
    }

    #[test]
    fn projection_is_checked_before_spend() {
        let rules = KillRules::PAPER;
        assert_eq!(rules.verdict(95.0, 50.0, 100.0), Some(Kill::Projected));
        assert_eq!(rules.verdict(94.0, 50.0, 100.0), Some(Kill::Spent));
    }

    #[test]
    fn thresholds_are_inclusive_fractions_of_best() {
        let rules = KillRules {
            switch_threshold: 0.5,
            spend_limit: 0.25,
        };
        assert!(rules.projected_out(5.0, 10.0));
        assert!(!rules.projected_out(4.9, 10.0));
        assert!(rules.overspent(2.5, 10.0));
        assert!(!rules.overspent(2.4, 10.0));
    }
}
