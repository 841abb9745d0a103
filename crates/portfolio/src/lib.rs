//! # portfolio — scheduled portfolio verification of quantum circuits
//!
//! No single equivalence-checking scheme wins everywhere: functional
//! checking after unitary reconstruction (the paper's Section 4) is
//! unbeatable when the miter stays close to the identity, while fixed-input
//! distribution extraction (Section 5) can be exponentially faster — or
//! exponentially slower — depending on how many measurement outcomes carry
//! probability mass. The crate answers that in three layers:
//!
//! * **[`scheme`] — the registry.** Every scheme is a
//!   [`SchemeDescriptor`](scheme::SchemeDescriptor): a static name, an
//!   applicability predicate over the circuit pair, static cost features
//!   and a runner function. The engine and scheduler are generic over
//!   registry entries; adding a scheme means adding one descriptor.
//! * **[`scheduler`] — the policy.** [`scheduler::plan`] turns a circuit
//!   pair, a [`SchedulePolicy`] and recorded telemetry into a launch plan.
//!   [`SchedulePolicy::Race`] (the default, and the paper's proposal)
//!   launches every applicable scheme at once — first conclusive verdict
//!   wins, a shared [`CancelToken`](dd::CancelToken) unwinds the losers.
//!   [`SchedulePolicy::Predicted`] launches only the top-`k` schemes the
//!   telemetry predicts for the pair's feature bucket and escalates to the
//!   full portfolio on stall or an inconclusive primary wave; with no
//!   recorded stats it degrades to the exact race plan. The tiny-instance
//!   sequential fast path is a plan shape, not an engine special case.
//! * **[`telemetry`] — the memory.** Every [`SchemeReport`] folds into
//!   per-(scheme, feature-bucket) running stats
//!   ([`telemetry::TelemetryStore`]) that serialize to JSON and are
//!   loaded/merged/saved across batch runs (`verify --stats-file`,
//!   [`batch::BatchOptions::stats`]). The same stats drive per-scheme
//!   garbage-collection budget hints
//!   ([`ScheduledScheme::gc_hint`](scheduler::ScheduledScheme::gc_hint)),
//!   threaded through [`qcec::Configuration`] into the decision-diagram
//!   [`MemoryConfig`](dd::MemoryConfig).
//!
//! [`verify_portfolio`] executes a plan for one pair;
//! [`verify_portfolio_recorded`] additionally reads and feeds a telemetry
//! store. The [`service`] module wraps the engine in a long-lived
//! [`VerificationService`](service::VerificationService); the [`batch`]
//! module (whole workloads from a JSON manifest or a directory of QASM
//! pairs, machine-readable JSON report) and the `verifyd` daemon are its
//! two front-ends, and the `verify` binary is the batch CLI.
//!
//! ## Service architecture
//!
//! ```text
//!   verify (one-shot CLI)      verifyd (daemon, stdio / unix socket)
//!            │                              │  wire.rs: line-delimited
//!            ▼                              ▼  JSON-RPC, bounded frames
//!      batch::run_batch ──────────► service::VerificationService
//!                                   │  admission control (workers+queue)
//!                                   │  per-request deadline/node budgets
//!                                   │  CancelToken per request (a dropped
//!                                   │  client kills its in-flight race)
//!                                   ▼
//!                       engine::verify_portfolio_recorded
//!                       folded TelemetryStore · obs
//! ```
//!
//! The service owns the state that makes a *resident* checker worth
//! running: the continuously folded [`TelemetryStore`] driving the
//! predictive scheduler, and the process-global `obs` substrate (each
//! response carries the metrics delta folded around its race).
//! [`service::VerificationService::submit`] applies admission control — beyond `workers + max_queue` admitted
//! requests it rejects with a structured reason instead of queueing
//! unboundedly — and returns a handle whose *drop* cancels the request:
//! the per-request token is chained as the parent of every scheme budget
//! ([`dd::Budget::with_parent_token`]), so a disconnected client's race
//! unwinds cooperatively.
//!
//! ## Wire protocol (verifyd)
//!
//! Newline-delimited JSON-RPC over stdio or a Unix socket ([`wire`] has
//! the full grammar): requests are `{"id", "method", "params"}` objects,
//! one per line; responses echo `id` and carry `result` or a structured
//! `error` (`code`, `message`). Methods: `verify-pair`, `verify-batch`,
//! `stats`, `drain`, `shutdown`. Responses arrive in *completion* order;
//! malformed, truncated or oversized lines get error responses (never a
//! panic, never a silent drop — a proptest suite feeds the parser
//! adversarial byte streams), and framing resynchronizes on the next
//! newline.
//!
//! ## Concurrency model
//!
//! A [`dd::DdPackage`] is single-threaded, and a race runs one package per
//! scheme thread: every scheme builds its miter, states or distributions in
//! private packages that die with the scheme. The racing threads share
//! nothing but a [`CancelToken`](dd::CancelToken), so a race takes no
//! locks, garbage collection never waits on another thread, and a pair's
//! memory is released as soon as its race ends.
//!
//! ## Incremental verification of compilation chains
//!
//! A compiler does not produce one circuit, it produces a *pipeline* of
//! them — original, decomposed, basis-rewritten, routed, optimized — and
//! the interesting question is rarely "do the endpoints agree" but "which
//! pass broke it". The [`chain`] module verifies such a pipeline
//! *pass-by-pass*: every adjacent snapshot pair is one ordinary portfolio
//! race, the whole chain occupies one service worker
//! ([`service::VerificationService::submit_chain`]), and the first refuted
//! step names the guilty pass ([`chain::ChainReport::guilty_pass`]). Two
//! things make this *faster* than it sounds, not slower:
//!
//! * adjacent snapshots are nearly identical, so every miter stays close
//!   to the identity — the regime where DD node sharing and the compute
//!   cache pay off most;
//! * the race includes the `functional(aligned)` scheme
//!   ([`qcec::Strategy::Aligned`]): a diff-guided gate schedule that walks
//!   an insertion-only pair (the shape every routing pass produces) in
//!   strict lockstep, tracking inserted SWAP triplets as wire renamings, so
//!   the routed step's miter never drifts the way a globally proportional
//!   schedule lets it. This is what makes the chain's hardest step — the
//!   routing pass — cheaper than the endpoint miter instead of costlier.
//!
//! Chains ride every front-end: manifests gain a `chains` array
//! ([`batch::Manifest::chains`], [`chain::ChainSpec`]), `verify --chain`
//! verifies one pipeline from the command line, the daemon speaks
//! `verify-chain`, and the batch report totals
//! `chains_total` / `chains_refuted` / `chain_steps_verified` plus
//! `pairs_per_sec` — plain pairs and verified chain steps per wall-clock
//! second. Verdict composition is conservative: `NotEquivalent` as soon as
//! a step refutes, otherwise the *weakest* step equivalence (one
//! simulative step caps the chain at `ProbablyEquivalent`; an
//! inconclusive step caps it at `NoInformation`) — a chain never claims
//! more than its weakest link proves. The compile crate's
//! [`StagedCompilation`](../compile/struct.StagedCompilation.html)
//! exposes per-pass snapshots for exactly this, and the bench crate's
//! `corpus` binary generates whole manifest corpora of them.
//!
//! ## Observability
//!
//! Every layer reports into the `obs` crate. Counters are always on (one
//! relaxed atomic add per event); structured tracing activates when a sink
//! is installed — `verify --trace-file FILE` writes JSONL where every line
//! carries `ts_us`/`thread`/`ev`/`kind` plus the ambient correlation IDs
//! (`pair`, `pair_name`, `scheme`, `span`/`parent`). The span tree per
//! pair: `pair` → `race` (fields: plan shape, verdict, winner, escalation)
//! → `scheme.run` per launch → the dd GC spans of whatever that scheme
//! allocated. Point events: `scheme.launch` (wave: inline / primary /
//! reserve / sequential), `race.verdict` (one per winner improvement),
//! `race.cancel`, `race.escalate` (with the [`EscalationReason`]),
//! `chain.step`, `telemetry.fold`.
//!
//! The portfolio metric catalogue — each entry's caveat states what the
//! bare number misleads about:
//!
//! | metric | unit | misleads about |
//! |---|---|---|
//! | `portfolio.races` | count | counts sequential tiny-instance plans as races too |
//! | `portfolio.scheme_launches` | count | launched is not finished: cancelled schemes count like winners |
//! | `portfolio.cancellations` | count | cancellation is cooperative; a scheme may finish before noticing |
//! | `portfolio.escalations.stall` | count | stall is a wall-clock verdict; a loaded machine escalates pairs a quiet one would not |
//! | `portfolio.escalations.drain` | count | drain indicts the prediction; stall may only indict the deadline |
//! | `batch.pairs` | count | includes pairs that failed to parse |
//! | `service.requests` | count | admitted is not completed: cancelled requests count like served ones |
//! | `service.queue_depth` / `service.inflight` | count | running *sums* sampled at admission/dispatch, not gauges — divide by `service.requests` for means; `stats` has the live gauges |
//! | `service.admission_rejects` | count | rejects are per submit attempt; one retrying client can dominate the count |
//! | `service.request_duration` | ns hist | dispatch-to-outcome only, queue wait invisible; log2 buckets make the p99 an upper bound |
//!
//! The batch JSON carries an always-on per-pair `metrics` block
//! ([`batch::PairMetrics`]: the best compute-cache hit rate) derived from
//! the same counters — no trace file needed. `verify --metrics` prints the
//! folded counters to stderr after a run; `--trace-file` implies it.
//!
//! ## Failure isolation
//!
//! A scheme that *panics* (as opposed to erroring) is caught, reported as a
//! failed [`SchemeReport`] with the panic message as its error, and the
//! run continues with the remaining schemes. The dead scheme's packages
//! were its own, so nothing the other racers hold is left inconsistent.
//!
//! ## Quick start
//!
//! ```
//! use algorithms::qpe;
//! use portfolio::{verify_portfolio, PortfolioConfig};
//!
//! let phi = 3.0 * std::f64::consts::PI / 8.0;
//! let result = verify_portfolio(
//!     &qpe::qpe_static(phi, 3, true),
//!     &qpe::iqpe_dynamic(phi, 3),
//!     &PortfolioConfig::default(),
//! );
//! assert!(result.verdict.considered_equivalent());
//! println!("winner: {:?} in {:?}", result.winner, result.time_to_verdict);
//! ```
//!
//! ## Verdict semantics
//!
//! A verdict is *conclusive* when it proves something: `Equivalent`,
//! `EquivalentUpToGlobalPhase` or `NotEquivalent`. `ProbablyEquivalent`
//! (simulative agreement on random stimuli) never beats a conclusive verdict
//! and is only returned when every scheme that finished was inconclusive.
//! Note that for *dynamic* circuit pairs the fixed-input scheme proves
//! equivalence of the measurement-outcome distributions for the all-zeros
//! input — a weaker statement than full functional equivalence. The
//! [`SchemeReport::scheme`] of the winner tells which semantics produced the
//! verdict, and two precedence rules keep runs sound:
//!
//! * a fixed-input *refutation* is also a functional refutation, so
//!   `NotEquivalent` from any scheme is always safe to report;
//! * when the fixed-input scheme claims equivalence but a functional scheme
//!   in the same run finished with a refutation, the refutation wins — the
//!   weaker claim never overrides the stronger proof.
//!
//! Predicted plans narrow *which* schemes launch, never the verdict rules:
//! an escalated run applies the same precedence across both waves, and the
//! acceptance suite pins verdict parity between predicted and race runs.

#![warn(missing_docs)]

pub mod batch;
pub mod chain;
mod engine;
pub mod scheduler;
pub mod scheme;
pub mod service;
pub mod telemetry;
pub mod wire;

pub use chain::{ChainReport, ChainRequest, ChainSpec, ChainStep, ChainStepReport, ChainStepSpec};
pub use engine::{
    applicable_schemes, run_scheme, verify_portfolio, verify_portfolio_recorded, EscalationReason,
    PortfolioConfig, PortfolioResult, SchemeReport, SharedStoreReport,
};
pub use scheduler::SchedulePolicy;
pub use scheme::Scheme;
pub use telemetry::{PairFeatures, TelemetryStore};

/// Parses a command-line flag value that must be a positive integer, as
/// `--workers` and `--node-limit` in both front-ends (`verify`, `verifyd`).
pub fn positive_flag(flag: &str, value: String) -> Result<usize, String> {
    match value.parse() {
        Ok(0) | Err(_) => Err(format!("{flag} must be a positive integer, got `{value}`")),
        Ok(n) => Ok(n),
    }
}
