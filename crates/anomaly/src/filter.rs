//! `k`-of-`W` majority-vote false-alarm filtering (paper §II-C).
//!
//! "PREPARE triggers prevention actions only after receiving at least *k*
//! alerts in the recent *W* predictions. [...] We set *k* to be 3 and *W*
//! to be 4 in our experiments."

use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use std::collections::VecDeque;

/// One round's input to the k-of-W filter.
///
/// The paper's filter is binary; [`Vote::Abstain`] is the robustness
/// layer's third state for rounds where the prediction pipeline had no
/// trustworthy input (dropped sample, staleness budget exceeded). An
/// abstention is *not* a "normal" vote: it leaves the window untouched,
/// so monitoring gaps can neither silently confirm nor silently dissolve
/// a pending alert — the evidence simply pauses until data returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// The predictor forecast an anomaly this round.
    Alert,
    /// The predictor forecast normal operation this round.
    Normal,
    /// No trustworthy prediction this round; the window is left as-is.
    Abstain,
}

/// Majority-vote filter over the most recent `W` predictions.
// xtask: checkpoint
#[derive(Debug, Clone, PartialEq)]
pub struct AlertFilter {
    // xtask: ephemeral -- supplied by PrepareConfig on load
    k: usize,
    // xtask: ephemeral -- supplied by PrepareConfig on load
    w: usize,
    recent: VecDeque<bool>,
    abstentions: u64,
}

impl AlertFilter {
    /// Creates a filter that confirms an alert when at least `k` of the
    /// last `w` predictions were alerts.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `w == 0`, or `k > w`.
    pub fn new(k: usize, w: usize) -> Self {
        assert!(k > 0 && w > 0, "k and W must be positive");
        assert!(k <= w, "k ({k}) must not exceed W ({w})");
        AlertFilter {
            k,
            w,
            recent: VecDeque::with_capacity(w),
            abstentions: 0,
        }
    }

    /// The paper's setting: k = 3, W = 4.
    pub fn paper_default() -> Self {
        AlertFilter::new(3, 4)
    }

    /// Feeds the latest raw prediction; returns `true` when the filtered
    /// (confirmed) alert condition holds.
    pub fn push(&mut self, alert: bool) -> bool {
        self.push_vote(if alert { Vote::Alert } else { Vote::Normal })
    }

    /// Feeds one round's [`Vote`]; returns `true` when the filtered
    /// (confirmed) alert condition holds.
    ///
    /// [`Vote::Abstain`] does not occupy a window slot: existing evidence
    /// neither ages out nor accumulates while the monitoring plane is
    /// degraded.
    pub fn push_vote(&mut self, vote: Vote) -> bool {
        let alert = match vote {
            Vote::Alert => true,
            Vote::Normal => false,
            Vote::Abstain => {
                self.abstentions += 1;
                return self.is_confirmed();
            }
        };
        if self.recent.len() == self.w {
            self.recent.pop_front();
        }
        self.recent.push_back(alert);
        self.is_confirmed()
    }

    /// Total abstentions fed to this filter since creation (survives
    /// [`AlertFilter::reset`] — it is a lifetime degradation odometer,
    /// not window state).
    pub fn abstentions(&self) -> u64 {
        self.abstentions
    }

    /// Whether the current window satisfies the k-of-W condition.
    pub fn is_confirmed(&self) -> bool {
        self.recent.iter().filter(|&&a| a).count() >= self.k
    }

    /// Clears history (used after a prevention action resolves an anomaly
    /// so stale alerts do not immediately re-trigger).
    pub fn reset(&mut self) {
        self.recent.clear();
    }

    /// Serializes the vote window and the abstention odometer; `k` and
    /// `W` are the owner's to supply on load.
    pub fn store_state(&self, w: &mut Writer) {
        self.recent.store(w);
        w.put_u64(self.abstentions);
    }

    /// Restores a `k`-of-`w` filter (a pair [`AlertFilter::new`] accepts)
    /// written by [`AlertFilter::store_state`]. Nothing is reserved up
    /// front, so the window costs no more than the bytes it was read from.
    ///
    /// # Errors
    ///
    /// A torn buffer, or a window longer than `w`.
    pub fn load_state(r: &mut Reader<'_>, k: usize, w: usize) -> Result<Self, PersistError> {
        let recent: VecDeque<bool> = Persist::load(r)?;
        if recent.len() > w {
            return Err(PersistError::Invalid("AlertFilter window longer than W"));
        }
        Ok(AlertFilter {
            k,
            w,
            recent,
            abstentions: r.get_u64()?,
        })
    }
}

impl Default for AlertFilter {
    fn default() -> Self {
        AlertFilter::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_k_alerts_in_window() {
        let mut f = AlertFilter::new(3, 4);
        assert!(!f.push(true));
        assert!(!f.push(true));
        assert!(f.push(true)); // 3 of last 3
        assert!(f.push(false)); // 3 of last 4
        assert!(!f.push(false)); // 2 of last 4
    }

    #[test]
    fn sporadic_alerts_filtered_out() {
        let mut f = AlertFilter::paper_default();
        // alternating true/false never reaches 3-of-4
        for i in 0..40 {
            assert!(!f.push(i % 2 == 0), "sporadic alert leaked at step {i}");
        }
    }

    #[test]
    fn persistent_anomaly_confirmed_with_bounded_delay() {
        let mut f = AlertFilter::paper_default();
        let mut confirm_step = None;
        for i in 0..10 {
            if f.push(true) {
                confirm_step = Some(i);
                break;
            }
        }
        // Confirmation after exactly k alerts — a 2-sampling-interval delay
        // versus k=1, which the paper calls negligible.
        assert_eq!(confirm_step, Some(2));
    }

    #[test]
    fn k1_passes_everything_through() {
        let mut f = AlertFilter::new(1, 4);
        assert!(f.push(true));
        f.push(false);
        assert!(f.is_confirmed()); // one alert still within window
    }

    #[test]
    fn reset_clears_state() {
        let mut f = AlertFilter::new(2, 3);
        f.push(true);
        f.push(true);
        assert!(f.is_confirmed());
        f.reset();
        assert!(!f.is_confirmed());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn k_greater_than_w_rejected() {
        let _ = AlertFilter::new(5, 4);
    }

    /// Exactly k = 3 alerts inside W = 4 confirms — the boundary case of
    /// the paper's setting, with the alerts in every possible position
    /// within the window.
    #[test]
    fn exactly_three_of_four_confirms() {
        for gap in 0..4usize {
            let mut f = AlertFilter::new(3, 4);
            let mut confirmed = false;
            for i in 0..4 {
                confirmed = f.push(i != gap);
            }
            assert!(
                confirmed,
                "3 alerts with the miss at position {gap} must confirm"
            );
        }
        // One fewer alert — 2 of 4 — must not, wherever the alerts sit.
        for (a, b) in [(0usize, 1usize), (0, 3), (1, 2), (2, 3)] {
            let mut f = AlertFilter::new(3, 4);
            let mut confirmed = false;
            for i in 0..4 {
                confirmed = f.push(i == a || i == b);
            }
            assert!(!confirmed, "2 alerts (at {a},{b}) must stay unconfirmed");
        }
    }

    /// Alerts straddling the sliding-window boundary: a burst old enough
    /// to have partially slid out no longer counts toward k, and the
    /// confirmation drops precisely when the kth alert crosses the edge.
    #[test]
    fn alerts_straddling_window_boundary_age_out() {
        let mut f = AlertFilter::new(3, 4);
        f.push(true);
        f.push(true);
        assert!(f.push(true), "3 in-window alerts confirm");
        // The window slides: [T T T F] still holds 3 alerts...
        assert!(f.push(false), "3-of-4 straddling the boundary still holds");
        // ...but one more quiet step evicts the first alert: [T T F F].
        assert!(!f.push(false), "kth alert slid out — confirmation drops");
        // A fresh alert now straddles old and new: [T F F T] is only 2.
        assert!(!f.push(true), "old + new alerts across the boundary < k");
    }

    /// Locks the *legacy* gap behaviour: the binary `push` API has no way
    /// to express "no sample this round", so a caller that simply skips
    /// the push leaves the window frozen — the gap is invisible and old
    /// evidence neither ages nor grows. This is the baseline the
    /// degraded-mode tests below build on.
    #[test]
    fn unpushed_rounds_leave_the_window_frozen() {
        let mut f = AlertFilter::new(3, 4);
        f.push(true);
        f.push(true);
        assert!(!f.is_confirmed());
        // Three sampling rounds pass with no push at all (dropped
        // samples). Nothing changes: the two alerts are still pending.
        assert!(!f.is_confirmed());
        assert_eq!(f.recent.len(), 2);
        // The next real alert completes k as if the gap never happened.
        assert!(f.push(true));
    }

    /// Locks the failure mode the Vote API exists to prevent: a caller
    /// that maps "no sample" to `push(false)` lets gaps vote "normal" —
    /// diluting genuine evidence and dissolving a pending confirmation.
    #[test]
    fn mapping_gaps_to_normal_votes_dissolves_evidence() {
        let mut f = AlertFilter::new(3, 4);
        f.push(true);
        f.push(true);
        // Two dropped rounds mis-coded as "normal": [T T F F].
        f.push(false);
        f.push(false);
        // The genuine alert that arrives next should have completed k=3,
        // but the gap votes pushed the real evidence out of the window.
        assert!(!f.push(true), "gap-as-normal wrongly blocks confirmation");
    }

    /// Degraded-mode behaviour: `Abstain` does not occupy a window slot,
    /// so a monitoring gap inside W can neither dissolve pending evidence
    /// nor count toward k.
    #[test]
    fn abstentions_preserve_evidence_without_counting() {
        let mut f = AlertFilter::new(3, 4);
        assert!(!f.push_vote(Vote::Alert));
        assert!(!f.push_vote(Vote::Alert));
        // Monitoring degrades for three rounds mid-confirmation.
        for _ in 0..3 {
            assert!(
                !f.push_vote(Vote::Abstain),
                "abstentions must not confirm an alert"
            );
        }
        assert_eq!(f.recent.len(), 2, "abstentions occupy no window slot");
        // Data returns: the pending evidence is intact and the next
        // genuine alert confirms, exactly as in the gap-free run.
        assert!(f.push_vote(Vote::Alert));
        assert_eq!(f.abstentions(), 3);
    }

    /// An already-confirmed alert stays confirmed through a blackout:
    /// abstaining suppresses *new* evidence, it does not flip state.
    #[test]
    fn abstentions_do_not_flip_a_confirmed_alert() {
        let mut f = AlertFilter::new(3, 4);
        for _ in 0..3 {
            f.push_vote(Vote::Alert);
        }
        assert!(f.is_confirmed());
        for _ in 0..10 {
            assert!(
                f.push_vote(Vote::Abstain),
                "confirmation must survive a blackout"
            );
        }
        // Genuine normals — not gaps — are what stands the alert down.
        f.push_vote(Vote::Normal);
        f.push_vote(Vote::Normal);
        assert!(!f.is_confirmed());
    }

    /// `push` and `push_vote` agree on the binary subset.
    #[test]
    fn vote_api_is_a_superset_of_push() {
        let mut a = AlertFilter::paper_default();
        let mut b = AlertFilter::paper_default();
        for i in 0..20 {
            let alert = i % 3 == 0;
            let vote = if alert { Vote::Alert } else { Vote::Normal };
            assert_eq!(a.push(alert), b.push_vote(vote));
        }
        assert_eq!(a, b);
    }

    /// A restored filter continues confirming exactly where the original
    /// left off — mid-window evidence and the abstention odometer survive.
    #[test]
    fn persist_round_trip_preserves_window_and_odometer() {
        let mut f = AlertFilter::new(3, 4);
        f.push_vote(Vote::Alert);
        f.push_vote(Vote::Abstain);
        f.push_vote(Vote::Alert);
        let mut w = Writer::new();
        f.store_state(&mut w);
        let mut r = Reader::new(w.bytes());
        let mut restored = AlertFilter::load_state(&mut r, 3, 4).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, f);
        assert_eq!(restored.abstentions(), 1);
        // The next alert completes k=3 on both copies.
        assert_eq!(restored.push(true), f.push(true));
        assert!(restored.is_confirmed());
    }

    #[test]
    fn load_state_rejects_a_window_longer_than_w() {
        let mut f = AlertFilter::new(2, 3);
        for _ in 0..3 {
            f.push(true);
        }
        let mut w = Writer::new();
        f.store_state(&mut w);
        let mut r = Reader::new(w.bytes());
        assert_eq!(
            AlertFilter::load_state(&mut r, 2, 2),
            Err(PersistError::Invalid("AlertFilter window longer than W"))
        );
    }

    /// After an actuation the controller resets the filter so stale
    /// pre-action alerts cannot combine with fresh ones to instantly
    /// re-trigger: post-reset confirmation needs k *new* alerts.
    #[test]
    fn window_reset_after_actuation_requires_fresh_evidence() {
        let mut f = AlertFilter::new(3, 4);
        for _ in 0..4 {
            f.push(true);
        }
        assert!(f.is_confirmed(), "saturated window is confirmed");
        // Prevention action fires; the controller resets the filter.
        f.reset();
        assert!(!f.is_confirmed(), "reset must clear the confirmation");
        // Stale history must not count: two new alerts are still below k
        // even though the pre-reset window was saturated.
        assert!(!f.push(true));
        assert!(!f.push(true));
        // The kth fresh alert — and only it — re-confirms.
        assert!(f.push(true), "k fresh alerts re-confirm after reset");
    }
}
