//! Cooperative cancellation and resource budgets.
//!
//! The portfolio verification engine races several schemes against each other
//! and cancels the losers; long-running single checks need node and leaf
//! budgets so one pathological instance cannot take a worker down. Both
//! concerns share one vocabulary defined here:
//!
//! * [`CancelToken`] — a cheaply clonable flag, set once, observed
//!   cooperatively by every hot loop (decision-diagram operations, the miter
//!   construction, branching extraction).
//! * [`Budget`] — a cancel token plus optional hard limits on decision-diagram
//!   node allocations and extraction leaves. This is the *single* resource
//!   limit type used by every entry point (the `qcec` checks, the extraction
//!   scheme, the `table1` harness and the portfolio engine).
//! * [`LimitExceeded`] — why a computation stopped early.
//!
//! The [`DdPackage`](crate::DdPackage) observes its budget inside node
//! allocation (the one place every diagram operation funnels through) and —
//! for the wall-clock deadline — additionally at every operation safe
//! point, so a cancelled worker unwinds within a few hundred allocations
//! and a deadline trips even across allocation-free cache-hit stretches,
//! all without any per-recursion atomic traffic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, one-way cancellation flag.
///
/// Clones observe the same flag; cancelling is idempotent and cannot be
/// undone. The flag is checked with relaxed ordering — cancellation is a
/// latency optimisation, not a synchronisation point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every computation observing this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once [`cancel`](Self::cancel) has been called.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budgeted computation stopped before producing a verdict.
///
/// The budget's *leaf* cap is enforced by the extraction itself and is
/// reported as `SimError::BranchLimitExceeded` (it is a property of the
/// branching walk, not of the decision-diagram package), so it has no
/// variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitExceeded {
    /// The [`CancelToken`] was triggered (typically: another portfolio
    /// scheme finished first).
    Cancelled,
    /// The decision-diagram package allocated more nodes than the budget
    /// allows.
    NodeLimit,
    /// The budget's wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitExceeded::Cancelled => write!(f, "cancelled"),
            LimitExceeded::NodeLimit => write!(f, "decision-diagram node budget exhausted"),
            LimitExceeded::Deadline => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

/// A resource budget shared by all verification entry points.
///
/// Cloning is cheap and keeps the cancel token shared, so one budget can be
/// handed to many workers and cancelled centrally.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    cancel: CancelToken,
    /// An outer cancellation scope (e.g. a service client's request token)
    /// observed *in addition to* the budget's own token. Keeping the two
    /// separate lets an engine cancel its race losers without tripping the
    /// client-visible token, while a client disconnect still unwinds every
    /// scheme of the request.
    parent: Option<CancelToken>,
    max_nodes: Option<usize>,
    max_leaves: Option<usize>,
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget with no limits and a fresh cancel token.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Replaces the cancel token (builder style).
    #[must_use]
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Caps decision-diagram node allocations (builder style).
    #[must_use]
    pub fn with_node_limit(mut self, max_nodes: usize) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Caps extraction leaves (builder style). `None` removes the cap.
    #[must_use]
    pub fn with_leaf_limit(mut self, max_leaves: impl Into<Option<usize>>) -> Self {
        self.max_leaves = max_leaves.into();
        self
    }

    /// Sets a wall-clock deadline `timeout` from now (builder style).
    ///
    /// The [`DdPackage`](crate::DdPackage) polls the deadline on its
    /// node-allocation path (at the same reduced cadence as the cancel
    /// flag) *and* at every operation safe point, so even allocation-free
    /// stretches — cache-hit-heavy phases — stop promptly after the deadline passes and report
    /// [`LimitExceeded::Deadline`].
    #[must_use]
    pub fn with_deadline(self, timeout: Duration) -> Self {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// Sets an absolute wall-clock deadline (builder style).
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Chains an outer cancellation scope (builder style): the budget
    /// counts as cancelled when *either* its own token or the parent token
    /// trips. The portfolio engine uses this to stack a client's request
    /// token on top of the race-internal winner-cancels-losers token.
    #[must_use]
    pub fn with_parent_token(mut self, parent: CancelToken) -> Self {
        self.parent = Some(parent);
        self
    }

    /// The budget's cancel token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The chained outer cancellation token, if any.
    pub fn parent_token(&self) -> Option<&CancelToken> {
        self.parent.as_ref()
    }

    /// Returns `true` once the budget's own token *or* its chained parent
    /// token has been cancelled. Every budget observation point (node
    /// allocation, operation safe points, the simulative sweeps) funnels
    /// through this, so a cancelled parent unwinds the computation exactly
    /// like the race token does.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled() || self.parent.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Requests cancellation of every computation using this budget.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Node-allocation cap, if any.
    pub fn max_nodes(&self) -> Option<usize> {
        self.max_nodes
    }

    /// Extraction-leaf cap, if any.
    pub fn max_leaves(&self) -> Option<usize> {
        self.max_leaves
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Returns `true` once the deadline (if any) has passed.
    #[inline]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_between_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn budget_builder_and_shared_cancel() {
        let budget = Budget::unlimited()
            .with_node_limit(1000)
            .with_leaf_limit(64);
        assert_eq!(budget.max_nodes(), Some(1000));
        assert_eq!(budget.max_leaves(), Some(64));
        let clone = budget.clone();
        budget.cancel();
        assert!(clone.cancel_token().is_cancelled());
        let uncapped = Budget::unlimited().with_leaf_limit(None);
        assert_eq!(uncapped.max_leaves(), None);
    }

    #[test]
    fn parent_token_cancels_without_tripping_the_race_token() {
        let request = CancelToken::new();
        let budget = Budget::unlimited().with_parent_token(request.clone());
        assert!(!budget.is_cancelled());
        request.cancel();
        assert!(budget.is_cancelled(), "parent cancellation is observed");
        assert!(
            !budget.cancel_token().is_cancelled(),
            "the race-internal token stays independent of the parent"
        );
        let race_only = Budget::unlimited().with_parent_token(CancelToken::new());
        race_only.cancel();
        assert!(race_only.is_cancelled(), "own token still cancels");
        assert_eq!(
            budget.parent_token().map(CancelToken::is_cancelled),
            Some(true)
        );
    }

    #[test]
    fn limit_display() {
        assert_eq!(LimitExceeded::Cancelled.to_string(), "cancelled");
        assert!(LimitExceeded::NodeLimit.to_string().contains("node"));
        assert!(LimitExceeded::Deadline.to_string().contains("deadline"));
    }

    #[test]
    fn deadline_observation() {
        let unlimited = Budget::unlimited();
        assert_eq!(unlimited.deadline(), None);
        assert!(!unlimited.deadline_exceeded());
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        assert!(expired.deadline().is_some());
        assert!(expired.deadline_exceeded());
        let generous = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(!generous.deadline_exceeded());
    }
}
