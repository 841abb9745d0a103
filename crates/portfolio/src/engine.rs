//! The portfolio engine: a launcher over scheme-registry entries.
//!
//! The engine owns no policy. It asks the [scheduler](crate::scheduler) for
//! a [`SchedulePlan`] and executes it — sequentially on the calling thread,
//! or on worker threads — wiring up budgets, cancellation and per-scheme
//! telemetry along the way. Both threaded plan shapes run through one
//! spawn/collect loop and one launch body: a race is a plan with an empty
//! reserve, whose favourite the calling thread runs itself before it
//! collects; a predicted plan spawns every launch while the calling thread
//! collects and keeps the stall clock. Every
//! launched scheme builds its diagrams in private decision-diagram packages
//! on its own thread; the racing threads share only the cancel token. Which
//! schemes launch, in what order and with what memory hints is entirely the
//! plan's business; what a scheme *does* is
//! [`scheme::run`](crate::scheme::run)'s.

use crate::scheduler::{self, SchedulePlan};
use crate::scheme::{self, applicable_descriptors, Scheme};
use crate::telemetry::TelemetryStore;
use circuit::QuantumCircuit;
use dd::{Budget, CancelToken};
use qcec::{Configuration, Equivalence};
use sim::ExtractionConfig;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a portfolio run.
#[derive(Debug, Clone, Default)]
pub struct PortfolioConfig {
    /// Configuration shared by the underlying checks (including the
    /// decision-diagram [`MemoryConfig`](dd::MemoryConfig) their packages
    /// are sized with).
    pub configuration: Configuration,
    /// Extraction settings for the fixed-input scheme.
    pub extraction: ExtractionConfig,
    /// Schemes to launch; empty lets the scheduler select and order the
    /// [`applicable_schemes`].
    pub schemes: Vec<Scheme>,
    /// Optional per-scheme decision-diagram node budget, metered on the
    /// live nodes of each of the scheme's packages. `Some(0)` is rejected by
    /// both front-ends: every scheme would trip it on its first node.
    pub node_limit: Option<usize>,
    /// Optional leaf budget for the fixed-input scheme.
    pub leaf_limit: Option<usize>,
    /// Optional wall-clock deadline per race, enforced inside decision-
    /// diagram allocation (reported as a scheme error when it trips).
    pub deadline: Option<Duration>,
    /// Optional *external* cancellation scope for the whole run — e.g. the
    /// verification service's per-request token, tripped when the client
    /// disconnects. It is chained as the parent of every scheme budget (see
    /// [`dd::Budget::with_parent_token`]), so it stays distinct from the
    /// race-internal winner-cancels-losers token: the engine can still tell
    /// "a competitor won" apart from "the caller walked away".
    pub cancel: Option<CancelToken>,
}

impl PortfolioConfig {
    /// A copy of the config with the scheduler's per-scheme memory hints
    /// folded into the memory configuration of every package the scheme
    /// will create. Hints only ever *tighten*: the GC-threshold hint can
    /// only lower thresholds (a disabled automatic GC stays disabled).
    fn with_hints(&self, scheduled: &crate::scheduler::ScheduledScheme) -> PortfolioConfig {
        let mut config = self.clone();
        if let Some(hint) = scheduled.gc_hint {
            if let Some(threshold) = config.configuration.memory.gc_threshold {
                config.configuration.memory.gc_threshold = Some(threshold.min(hint));
            }
            if let Some(threshold) = config.extraction.memory.gc_threshold {
                config.extraction.memory.gc_threshold = Some(threshold.min(hint));
            }
        }
        config
    }
}

/// Telemetry of one scheme's run inside a portfolio.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SchemeReport {
    /// Which scheme ran.
    pub scheme: Scheme,
    /// The verdict it produced, if it finished.
    pub verdict: Option<Equivalence>,
    /// Whether the verdict proves (non-)equivalence.
    pub conclusive: bool,
    /// Whether the scheme was cancelled because a competitor won.
    pub cancelled: bool,
    /// Failure description when the scheme neither finished nor was
    /// cancelled (e.g. node budget exhausted, unsupported circuit).
    pub error: Option<String>,
    /// Wall-clock time the scheme ran for (serialized as seconds).
    pub duration: Duration,
    /// Peak decision-diagram size observed (miter size for functional
    /// schemes, extraction leaves for the fixed-input scheme).
    pub peak_nodes: Option<usize>,
    /// Fraction of decision-diagram compute-table lookups served from the
    /// lossy caches, when the scheme ran far enough to report it.
    pub cache_hit_rate: Option<f64>,
    /// Decision-diagram garbage-collection runs during the scheme.
    pub gc_runs: Option<usize>,
}

/// Why a predicted run launched its reserve wave (see
/// [`SchedulePlan::reserve`]). Serialized as `"stall"` /
/// `"inconclusive-drain"` in batch JSON and trace events.
///
/// The two reasons point at different scheduler mistakes: a [`Stall`]
/// means the predicted winners were *too slow* (the stall deadline may be
/// tuned, or the prediction was wrong about speed); an
/// [`InconclusiveDrain`] means they were *incapable* — every primary
/// scheme finished without settling the pair, so no deadline tuning would
/// have helped.
///
/// [`Stall`]: EscalationReason::Stall
/// [`InconclusiveDrain`]: EscalationReason::InconclusiveDrain
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationReason {
    /// No conclusive verdict arrived within the plan's stall deadline
    /// while primary schemes were still running.
    Stall,
    /// Every primary scheme finished before the deadline, all of them
    /// inconclusive, so the reserve launched immediately.
    InconclusiveDrain,
}

impl EscalationReason {
    /// Stable machine-readable name, used in batch JSON and trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            EscalationReason::Stall => "stall",
            EscalationReason::InconclusiveDrain => "inconclusive-drain",
        }
    }
}

impl std::fmt::Display for EscalationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl serde::Serialize for EscalationReason {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

/// Retired report of the shared decision-diagram store that racing schemes
/// used to intern into. Every scheme now runs on private packages, so
/// [`PairReport::shared_store`](crate::batch::PairReport::shared_store) is
/// always `None`; the type is kept because the benchmark harness reads it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SharedStoreReport {
    /// Always 0: no structure carries over between chain steps.
    pub chain_hits: u64,
    /// Always 0: private packages have no shared canonical tables.
    pub intern_hits: u64,
}

/// Outcome of a portfolio run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PortfolioResult {
    /// The combined verdict (see the crate docs for verdict semantics).
    pub verdict: Equivalence,
    /// Scheme that produced the verdict, if any scheme finished.
    pub winner: Option<Scheme>,
    /// Wall time from launch until the winning verdict arrived.
    pub time_to_verdict: Duration,
    /// Wall time until every worker had stopped (losers unwind after
    /// cancellation, so this stays close to `time_to_verdict`).
    pub total_time: Duration,
    /// Whether recorded telemetry steered the launch plan (`false` for
    /// race-everything runs: no store, or no stats for the pair's feature
    /// bucket).
    pub predicted: bool,
    /// Why a predicted run had to launch its reserve wave, if it did.
    /// `None` when the primary wave settled the pair — and always `None`
    /// for race-everything runs, which hold nothing back to escalate to.
    pub escalation: Option<EscalationReason>,
    /// Telemetry of every scheme that launched, in completion order.
    pub schemes: Vec<SchemeReport>,
}

impl PortfolioResult {
    /// Whether the run escalated to its reserve wave (for any reason).
    pub fn escalated(&self) -> bool {
        self.escalation.is_some()
    }
}

/// Selects the schemes worth racing for a circuit pair, in race-launch
/// order (the heuristic favourite first).
///
/// This is a registry query: the entries of
/// [`scheme::REGISTRY`](crate::scheme::REGISTRY) whose applicability
/// predicate accepts the pair, ordered by their
/// [`race_rank`](crate::scheme::SchemeDescriptor::race_rank). Static pairs
/// select the three miter schedules plus random-stimulus simulation; pairs
/// with dynamic primitives select the Section 4 reconstruction flow (all
/// three schedules) plus the Section 5 fixed-input extraction.
pub fn applicable_schemes(left: &QuantumCircuit, right: &QuantumCircuit) -> Vec<Scheme> {
    applicable_descriptors(left, right)
        .iter()
        .map(|descriptor| descriptor.scheme)
        .collect()
}

fn conclusive(verdict: Equivalence) -> bool {
    matches!(
        verdict,
        Equivalence::Equivalent
            | Equivalence::EquivalentUpToGlobalPhase
            | Equivalence::NotEquivalent
    )
}

/// Runs a single scheme under `budget` and reports its telemetry.
///
/// This is the worker body of [`verify_portfolio`], exposed so benchmarks
/// and tests can time individual schemes under identical conditions. The
/// scheme body is [`scheme::run`]; this function adds timing and folds the
/// outcome into a [`SchemeReport`].
pub fn run_scheme(
    scheme: Scheme,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeReport {
    let start = Instant::now();
    let outcome = scheme::run(scheme, left, right, config, budget);
    SchemeReport {
        scheme,
        // `ProbablyEquivalent` (simulative agreement) is advisory, so it
        // never counts as conclusive and never cancels competitors.
        conclusive: outcome.verdict.map(conclusive).unwrap_or(false),
        verdict: outcome.verdict,
        cancelled: outcome.cancelled,
        error: outcome.error,
        duration: start.elapsed(),
        peak_nodes: outcome.peak_nodes,
        cache_hit_rate: outcome.memory.and_then(|m| m.compute_hit_rate()),
        gc_runs: outcome.memory.map(|m| m.gc_runs),
    }
}

/// [`run_scheme`] hardened against scheme panics: a panicking scheme is
/// reported as failed (with the panic message as its error) instead of
/// tearing down the whole race. The scheme's packages die with its thread,
/// so nothing it held can poison the other racers.
fn run_scheme_caught(
    scheme: Scheme,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeReport {
    catch_scheme(scheme, || run_scheme(scheme, left, right, config, budget))
}

/// Converts a panicking scheme body into a failed [`SchemeReport`].
fn catch_scheme(scheme: Scheme, run: impl FnOnce() -> SchemeReport) -> SchemeReport {
    let start = Instant::now();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        SchemeReport {
            scheme,
            verdict: None,
            conclusive: false,
            cancelled: false,
            error: Some(format!(
                "scheme panicked: {}",
                panic_message(payload.as_ref())
            )),
            duration: start.elapsed(),
            peak_nodes: None,
            cache_hit_rate: None,
            gc_runs: None,
        }
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

/// The verdict bookkeeping of one run: every scheme report in the order
/// the collector received it, plus the conclusive verdict that *finished*
/// first.
#[derive(Default)]
struct Tally {
    reports: Vec<SchemeReport>,
    verdict: Option<Equivalence>,
    winner: Option<Scheme>,
    time_to_verdict: Option<Duration>,
}

impl Tally {
    /// Records a report that finished `finished_at` into the run. Reports
    /// can arrive out of finish order, so a conclusive one only takes the
    /// lead when it finished before the current winner.
    fn note(&mut self, report: SchemeReport, finished_at: Duration) {
        if report.conclusive && self.time_to_verdict.is_none_or(|t| finished_at < t) {
            self.verdict = report.verdict;
            self.winner = Some(report.scheme);
            self.time_to_verdict = Some(finished_at);
            obs::trace::event(
                "race.verdict",
                &[
                    ("winner", report.scheme.name().into()),
                    (
                        "verdict",
                        report
                            .verdict
                            .map(|v| v.to_string().into())
                            .unwrap_or_else(|| "none".into()),
                    ),
                    ("at_us", finished_at.into()),
                ],
            );
        }
        self.reports.push(report);
    }

    /// Folds the tally into the final result: the first conclusive verdict
    /// wins; otherwise the strongest advisory verdict is used.
    fn finish(mut self, start: Instant) -> PortfolioResult {
        // Refutation precedence: when the fixed-input scheme won with its
        // weaker all-zeros-input equivalence claim but a functional scheme
        // *also* finished and proved the circuits differ, the refutation
        // stands (the time to the first verdict is kept as the race
        // telemetry).
        if self.winner == Some(Scheme::FixedInput)
            && self.verdict.is_some_and(Equivalence::considered_equivalent)
        {
            if let Some(refutation) = self.reports.iter().find(|r| {
                r.scheme != Scheme::FixedInput && r.verdict == Some(Equivalence::NotEquivalent)
            }) {
                self.verdict = refutation.verdict;
                self.winner = Some(refutation.scheme);
            }
        }
        let total_time = start.elapsed();
        let (verdict, winner) = match self.verdict {
            Some(verdict) => (Some(verdict), self.winner),
            None => match self
                .reports
                .iter()
                .find(|r| r.verdict == Some(Equivalence::ProbablyEquivalent))
            {
                Some(report) => (report.verdict, Some(report.scheme)),
                None => (None, None),
            },
        };
        PortfolioResult {
            verdict: verdict.unwrap_or(Equivalence::NoInformation),
            winner,
            time_to_verdict: self.time_to_verdict.unwrap_or(total_time),
            total_time,
            predicted: false,
            escalation: None,
            schemes: self.reports,
        }
    }
}

/// Launches all configured (or scheduler-selected) verification schemes for
/// a circuit pair and returns the first conclusive verdict plus per-scheme
/// telemetry.
///
/// Without recorded stats every applicable scheme races on its own
/// `std::thread` worker. Each scheme owns private decision-
/// diagram packages, so the race needs no locks and no cross-thread garbage
/// collection; the workers share only one [`CancelToken`], so the moment a
/// conclusive verdict arrives the losing schemes stop burning cores and
/// unwind. The wall time of the whole call therefore tracks the *fastest*
/// scheme, while the verdict quality matches the best scheme that could
/// have run alone. Tiny instances (≤ 8 qubits, ≤ 256 operations) get a
/// *sequential* plan instead — the schemes are tried one after another on
/// the calling thread, below the cost of a thread spawn.
///
/// With recorded stats (see [`verify_portfolio_recorded`]) only the two
/// predicted winners launch, with the rest of the portfolio held back as an
/// escalation wave.
pub fn verify_portfolio(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
) -> PortfolioResult {
    verify_portfolio_recorded(left, right, config, None)
}

/// [`verify_portfolio`] wired to a persistent [`TelemetryStore`]: the
/// scheduler plans against the store's recorded stats (predicting once the
/// pair's bucket is warm), and every scheme report of the run is folded
/// back in afterwards. This is the entry point the verification service
/// uses when it keeps a stats file (`verify --stats-file`).
pub fn verify_portfolio_recorded(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    telemetry: Option<&Mutex<TelemetryStore>>,
) -> PortfolioResult {
    let plan = {
        // Hold the lock only while planning (a handful of map lookups);
        // recover from poisoning like every other portfolio lock.
        let guard = telemetry.map(|store| store.lock().unwrap_or_else(PoisonError::into_inner));
        scheduler::plan(left, right, config, guard.as_deref())
    };
    let result = execute_plan(left, right, config, &plan);
    if let Some(telemetry) = telemetry {
        let mut guard = telemetry.lock().unwrap_or_else(PoisonError::into_inner);
        guard.record_race(&plan.features, &result.schemes, result.winner);
        drop(guard);
        obs::trace::event(
            "telemetry.fold",
            &[("schemes", (result.schemes.len() as u64).into())],
        );
    }
    result
}

/// Executes a launch plan: the engine proper.
fn execute_plan(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    plan: &SchedulePlan,
) -> PortfolioResult {
    let cancel = CancelToken::new();
    obs::metrics::incr(obs::metrics::PF_RACES);
    // The race span parents every scheme/GC span of this pair; workers
    // inherit it through the explicit context handoff in `spawn_wave`.
    let race_span = obs::trace::span(
        "race",
        &[
            ("sequential", plan.sequential.into()),
            ("predicted", plan.predicted.into()),
            ("primary", (plan.primary.len() as u64).into()),
            ("reserve", (plan.reserve.len() as u64).into()),
        ],
    );

    // One shared absolute deadline for the whole run, fixed up front so
    // every scheme (including escalation-wave workers) counts down together.
    let deadline_at = config.deadline.map(|timeout| Instant::now() + timeout);
    let make_budget = || {
        let mut budget = Budget::unlimited().with_cancel_token(cancel.clone());
        if let Some(external) = &config.cancel {
            budget = budget.with_parent_token(external.clone());
        }
        if let Some(max_nodes) = config.node_limit {
            budget = budget.with_node_limit(max_nodes);
        }
        if let Some(max_leaves) = config.leaf_limit {
            budget = budget.with_leaf_limit(max_leaves);
        }
        if let Some(at) = deadline_at {
            budget = budget.with_deadline_at(at);
        }
        budget
    };

    // Per-launch configs with the scheduler's memory hints folded in;
    // workers borrow these across the scope below.
    let launches: Vec<(Scheme, PortfolioConfig)> = plan
        .all_schemes()
        .map(|scheduled| (scheduled.scheme, config.with_hints(scheduled)))
        .collect();

    let start = Instant::now();
    let mut tally = Tally::default();
    let mut escalation: Option<EscalationReason> = None;

    if plan.sequential {
        let budget = make_budget();
        for (scheme, scheme_config) in &launches {
            // An external cancellation (client disconnect) ends the
            // sequential fallback chain between schemes — each scheme
            // already unwinds internally via the budget.
            if budget.is_cancelled() {
                break;
            }
            let _trace =
                obs::trace::with_context(obs::trace::current_context().with_scheme(scheme.name()));
            obs::trace::event("scheme.launch", &[("wave", "sequential".into())]);
            obs::metrics::incr(obs::metrics::PF_SCHEME_LAUNCHES);
            let report = run_scheme_caught(*scheme, left, right, scheme_config, &budget);
            let conclusive = report.conclusive;
            tally.note(report, start.elapsed());
            if conclusive {
                break;
            }
        }
    } else {
        // A dead client must not trigger the escalation wave: the primaries
        // unwind as inconclusive when the external token trips, which would
        // otherwise read as an escalation cue.
        let externally_cancelled = || {
            config
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
        };
        let primary = plan.primary.len();
        let escalate_at = plan.escalate_after.map(|after| start + after);
        // The body of every launch. `ctx` is captured on the collector,
        // under the race span: the launch installs it so its scheme
        // span (and every dd GC span inside) nests under this pair's
        // race with the scheme tagged on.
        let run_launch = |index: usize, ctx: obs::trace::Context, wave: &'static str| {
            let (scheme, scheme_config) = &launches[index];
            let _trace = obs::trace::with_context(ctx.with_scheme(scheme.name()));
            obs::trace::event("scheme.launch", &[("wave", wave.into())]);
            obs::metrics::incr(obs::metrics::PF_SCHEME_LAUNCHES);
            let scheme_span = obs::trace::span("scheme.run", &[("wave", wave.into())]);
            let report = run_scheme_caught(*scheme, left, right, scheme_config, &make_budget());
            let finished_at = start.elapsed();
            if report.conclusive {
                // Cancel from inside the launch so losers start
                // unwinding even before the collector observes the
                // report.
                cancel.cancel();
                obs::trace::event("race.cancel", &[("by", scheme.name().into())]);
            }
            scheme_span.end(&[
                ("conclusive", report.conclusive.into()),
                ("cancelled", report.cancelled.into()),
            ]);
            (report, finished_at)
        };
        let run_launch = &run_launch;
        std::thread::scope(|scope| {
            // Reports travel with the run-relative instant their scheme
            // finished, so `time_to_verdict` reflects when the verdict was
            // *produced*, not when the collector got around to processing
            // it.
            let (sender, receiver) = mpsc::channel::<(SchemeReport, Duration)>();
            let spawn_wave = |wave_launches: std::ops::Range<usize>, wave: &'static str| {
                for index in wave_launches {
                    let sender = sender.clone();
                    let ctx = obs::trace::current_context();
                    // The receiver only disappears once the scope ends, but
                    // be tolerant anyway: a worker must never panic on send.
                    scope.spawn(move || {
                        let _ = sender.send(run_launch(index, ctx, wave));
                    });
                }
            };

            // A plan without a reserve keeps no stall clock, so the
            // calling thread runs the favourite (launch 0) itself once its
            // competitors are spawned: on an oversubscribed host a thread
            // that is already running reaches the verdict first, where a
            // freshly spawned one queues behind every other racer.
            let inline = usize::from(plan.reserve.is_empty());
            spawn_wave(inline..primary, "primary");
            if inline == 1 {
                let (report, finished_at) = run_launch(0, obs::trace::current_context(), "inline");
                tally.note(report, finished_at);
            }
            // Every worker sends exactly one report (panics are caught
            // inside the launch body), so collect by count — the collector
            // keeps a sender alive, so disconnection never signals the end.
            let mut pending = primary - inline;
            loop {
                // The reserve is still held back and worth launching: no
                // verdict yet and the client is still there.
                let held_back = escalation.is_none()
                    && primary < launches.len()
                    && tally.verdict.is_none()
                    && !externally_cancelled();
                let reason = if pending == 0 {
                    if !held_back {
                        break;
                    }
                    // The primary wave drained inconclusive before the
                    // stall deadline: the predicted schemes were incapable,
                    // not slow.
                    EscalationReason::InconclusiveDrain
                } else {
                    let received = match escalate_at.filter(|_| held_back) {
                        None => receiver
                            .recv()
                            .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                        Some(at) => {
                            receiver.recv_timeout(at.saturating_duration_since(Instant::now()))
                        }
                    };
                    match received {
                        Ok((report, finished_at)) => {
                            pending -= 1;
                            tally.note(report, finished_at);
                            continue;
                        }
                        // Deadline hit with primaries still running: a
                        // stall, the classic misprediction.
                        Err(mpsc::RecvTimeoutError::Timeout) => EscalationReason::Stall,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                };
                escalation = Some(reason);
                obs::metrics::incr(match reason {
                    EscalationReason::Stall => obs::metrics::PF_ESCALATIONS_STALL,
                    EscalationReason::InconclusiveDrain => obs::metrics::PF_ESCALATIONS_DRAIN,
                });
                obs::trace::event(
                    "race.escalate",
                    &[
                        ("reason", reason.as_str().into()),
                        ("reserve", ((launches.len() - primary) as u64).into()),
                    ],
                );
                spawn_wave(primary..launches.len(), "reserve");
                pending += launches.len() - primary;
            }
        });
    }

    let mut result = tally.finish(start);
    result.predicted = plan.predicted;
    result.escalation = escalation;
    finish_race(race_span, &result);
    result
}

/// Closes a race's trace span with its outcome and folds the outcome
/// counters into the metrics registry.
fn finish_race(span: obs::trace::Span, result: &PortfolioResult) {
    let cancelled = result.schemes.iter().filter(|r| r.cancelled).count() as u64;
    obs::metrics::add(obs::metrics::PF_CANCELLATIONS, cancelled);
    if result.winner.is_some() {
        obs::metrics::observe_ns(
            obs::metrics::HIST_VERDICT_NS,
            result.time_to_verdict.as_nanos() as u64,
        );
    }
    span.end(&[
        ("verdict", result.verdict.to_string().into()),
        (
            "winner",
            result.winner.map(|w| w.name()).unwrap_or("none").into(),
        ),
        ("verdict_us", result.time_to_verdict.into()),
        ("cancelled", cancelled.into()),
        (
            "escalation",
            result
                .escalation
                .map(EscalationReason::as_str)
                .unwrap_or("none")
                .into(),
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ScheduledScheme;
    use crate::telemetry::PairFeatures;
    use qcec::Strategy;

    /// A hand-built predicted plan for `pair`: `primary` launches first,
    /// `reserve` on escalation after `escalate_after`.
    fn predicted_plan(
        pair: (&QuantumCircuit, &QuantumCircuit),
        primary: &[Scheme],
        reserve: &[Scheme],
        escalate_after: Duration,
    ) -> SchedulePlan {
        let scheduled = |schemes: &[Scheme]| {
            schemes
                .iter()
                .map(|&scheme| ScheduledScheme {
                    scheme,
                    gc_hint: None,
                })
                .collect()
        };
        SchedulePlan {
            features: PairFeatures::extract(pair.0, pair.1),
            sequential: false,
            primary: scheduled(primary),
            reserve: scheduled(reserve),
            escalate_after: Some(escalate_after),
            predicted: true,
        }
    }

    #[test]
    fn stalled_primary_wave_escalates_on_the_deadline() {
        // A zero stall deadline forces the stall path: the collector times
        // out before the primary scheme can report, the reserve launches,
        // and the verdict must still be conclusive and correct.
        let left = algorithms::qft::qft_static(10, None, true);
        let right = algorithms::qft::qft_dynamic(10);
        let plan = predicted_plan(
            (&left, &right),
            &[Scheme::DynamicFunctional(Strategy::Reference)],
            &[Scheme::DynamicFunctional(Strategy::Proportional)],
            Duration::ZERO,
        );
        let result = execute_plan(&left, &right, &PortfolioConfig::default(), &plan);
        assert!(result.predicted);
        assert_eq!(result.escalation, Some(EscalationReason::Stall));
        assert!(
            result.verdict.considered_equivalent(),
            "verdict {:?} via {:?}",
            result.verdict,
            result.winner
        );
        assert_eq!(result.schemes.len(), 2, "both waves report");
    }

    #[test]
    fn drained_primary_wave_escalates_inconclusively() {
        // The single primary scheme, the fixed-input extraction, fails
        // deterministically on a 1-leaf budget long before the 60 s stall
        // deadline. The wave drains without a verdict, so the reserve (a
        // reconstruction scheme, which ignores the leaf budget) must launch
        // at once and prove equivalence, and the reason must say the
        // prediction was incapable, not slow.
        let left = algorithms::qft::qft_static(10, None, true);
        let right = algorithms::qft::qft_dynamic(10);
        let plan = predicted_plan(
            (&left, &right),
            &[Scheme::FixedInput],
            &[Scheme::DynamicFunctional(Strategy::Proportional)],
            Duration::from_secs(60),
        );
        let config = PortfolioConfig {
            leaf_limit: Some(1),
            ..PortfolioConfig::default()
        };
        let result = execute_plan(&left, &right, &config, &plan);
        assert_eq!(
            result.escalation,
            Some(EscalationReason::InconclusiveDrain),
            "{:#?}",
            result.schemes
        );
        assert!(result.verdict.considered_equivalent());
        assert_eq!(
            result.winner,
            Some(Scheme::DynamicFunctional(Strategy::Proportional))
        );
        let fixed = &result.schemes[0];
        assert_eq!(fixed.scheme, Scheme::FixedInput);
        assert!(
            fixed.error.is_some(),
            "the leaf budget must trip: {fixed:?}"
        );
        assert!(
            result.total_time < Duration::from_secs(60),
            "the reserve must not wait for the stall deadline"
        );
    }

    #[test]
    fn panicking_scheme_is_reported_as_failed() {
        let report = catch_scheme(Scheme::Simulative, || panic!("miter blew up on qubit 7"));
        assert_eq!(report.scheme, Scheme::Simulative);
        assert!(!report.conclusive);
        assert!(!report.cancelled);
        assert_eq!(report.verdict, None);
        let error = report.error.expect("panic must surface as an error");
        assert!(error.contains("panicked"), "{error}");
        assert!(error.contains("miter blew up on qubit 7"), "{error}");
    }

    #[test]
    fn scheme_names_are_static_and_stable() {
        use qcec::Strategy;
        assert_eq!(
            Scheme::Functional(Strategy::Proportional).name(),
            "functional(proportional)"
        );
        assert_eq!(Scheme::Simulative.name(), "simulative");
        assert_eq!(
            Scheme::DynamicFunctional(Strategy::Reference).name(),
            "dynamic-functional(reference)"
        );
        assert_eq!(Scheme::FixedInput.name(), "fixed-input");
        assert_eq!(Scheme::FixedInput.to_string(), "fixed-input");
    }
}
