//! The adaptive scheduler: turns a circuit pair and recorded telemetry
//! into a launch plan.
//!
//! This module is the single place where portfolio *policy* lives. The
//! engine executes whatever [`SchedulePlan`] it is handed; the plan decides
//!
//! * whether to race on threads or try schemes sequentially on the calling
//!   thread (the tiny-instance fast path is a plan shape here, not an
//!   engine special case),
//! * which schemes launch immediately ([`SchedulePlan::primary`]) and which
//!   are held back as the escalation wave ([`SchedulePlan::reserve`]), and
//! * a per-scheme garbage-collection threshold hint derived from recorded
//!   peak-node telemetry ([`ScheduledScheme::gc_hint`]).
//!
//! There is one policy, and one fact decides what it plans: whether the
//! [`TelemetryStore`] handed to [`plan`] holds stats for the pair's
//! [feature bucket](crate::telemetry::FeatureBucket). Without a store, or
//! with a cold bucket, every applicable scheme launches at once in the
//! registry's race order — the paper's proposal. With stats, the scheduler
//! scores each applicable scheme and launches only the top two predicted
//! winners, escalating to the rest of the portfolio when the primary wave
//! stalls for two seconds or finishes inconclusively.

use crate::engine::PortfolioConfig;
use crate::scheme::{applicable_descriptors, Scheme, SchemeDescriptor};
use crate::telemetry::{PairFeatures, TelemetryStore};
use circuit::QuantumCircuit;
use dd::DEFAULT_GC_THRESHOLD;
use std::time::Duration;

/// Predicted winners a warm plan launches up front. Two always include a
/// scheme that can prove equivalence: the simulative check is the only one
/// that cannot, and every applicable set has at least four schemes.
const PRIMARY_WAVE: usize = 2;

/// How long a predicted primary wave may run without a conclusive verdict
/// before the reserve launches.
const STALL_AFTER: Duration = Duration::from_secs(2);

/// One scheme launch of a plan: the scheme plus the scheduler's per-scheme
/// memory hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledScheme {
    /// The scheme to launch.
    pub scheme: Scheme,
    /// Garbage-collection threshold hint derived from the bucket's recorded
    /// peak-node telemetry: schemes whose history shows small peaks collect
    /// earlier, bounding memory without measurable slowdown. `None` keeps
    /// the [`MemoryConfig`](dd::MemoryConfig) default.
    pub gc_hint: Option<usize>,
}

/// A launch plan for one circuit pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePlan {
    /// The extracted pair features (also the telemetry-recording key).
    pub features: PairFeatures,
    /// Try the primary schemes one after another on the calling thread
    /// instead of racing threads — chosen for tiny instances, where a
    /// thread spawn costs more than the whole verification.
    pub sequential: bool,
    /// Schemes launched immediately, in launch order (index 0 is the
    /// heuristic or predicted favourite).
    pub primary: Vec<ScheduledScheme>,
    /// Schemes held back for escalation (empty for a race plan).
    pub reserve: Vec<ScheduledScheme>,
    /// How long to wait for a conclusive verdict before launching the
    /// reserve (`None` when there is no reserve).
    pub escalate_after: Option<Duration>,
    /// Whether recorded telemetry steered this plan (`false` for race
    /// plans, including those planned against a cold bucket).
    pub predicted: bool,
}

impl SchedulePlan {
    /// Schemes of the plan in launch order, primary wave first.
    pub fn all_schemes(&self) -> impl Iterator<Item = &ScheduledScheme> {
        self.primary.iter().chain(self.reserve.iter())
    }
}

/// Instances this small finish in microseconds under any scheme; spawning
/// threads would cost more than simply trying the schemes one after another.
fn is_tiny(left: &QuantumCircuit, right: &QuantumCircuit) -> bool {
    left.num_qubits().max(right.num_qubits()) <= 8 && left.len().max(right.len()) <= 256
}

fn unhinted(schemes: impl IntoIterator<Item = Scheme>) -> Vec<ScheduledScheme> {
    schemes
        .into_iter()
        .map(|scheme| ScheduledScheme {
            scheme,
            gc_hint: None,
        })
        .collect()
}

/// Derives the GC-threshold hint for one scheme from its bucket stats: twice
/// the largest recorded peak, rounded up to a power of two, clamped to
/// `[2^14, DEFAULT_GC_THRESHOLD]`. The hint can only *lower* the threshold —
/// the default remains the ceiling, so an instance that outgrows its history
/// behaves exactly as before (GC triggers adapt upward on thrash anyway).
fn gc_hint(stats: &crate::telemetry::SchemeStats) -> Option<usize> {
    if stats.peak_samples == 0 {
        return None;
    }
    let target = (stats.peak_nodes_max as usize)
        .saturating_mul(2)
        .next_power_of_two();
    Some(target.clamp(1 << 14, DEFAULT_GC_THRESHOLD))
}

/// Builds the launch plan for a circuit pair: the race plan, unless
/// `telemetry` holds stats for the pair's bucket.
///
/// With explicit [`PortfolioConfig::schemes`] the caller has already decided
/// what to run: the plan races exactly that list (threaded, in list order),
/// matching the engine's historical behaviour for benchmarks and tests.
pub fn plan(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    telemetry: Option<&TelemetryStore>,
) -> SchedulePlan {
    let features = PairFeatures::extract(left, right);
    if !config.schemes.is_empty() {
        return SchedulePlan {
            features,
            sequential: false,
            primary: unhinted(config.schemes.iter().copied()),
            reserve: Vec::new(),
            escalate_after: None,
            predicted: false,
        };
    }

    let candidates = applicable_descriptors(left, right);
    let tiny = is_tiny(left, right);
    let bucket = features.bucket();
    // Score each candidate against the bucket's recorded stats. A bucket
    // no candidate has stats for means the telemetry cannot rank anything:
    // the plan is then the exact race plan.
    let scored: Vec<(&SchemeDescriptor, Option<&crate::telemetry::SchemeStats>)> = candidates
        .iter()
        .map(|descriptor| {
            let stats = telemetry
                .and_then(|store| store.stats(descriptor.scheme, &bucket))
                .filter(|stats| stats.launches > 0);
            (*descriptor, stats)
        })
        .collect();
    let have_stats = scored.iter().any(|(_, stats)| stats.is_some());

    if !have_stats {
        let mut order = candidates;
        if tiny {
            order.sort_by_key(|descriptor| descriptor.sequential_rank);
        }
        return SchedulePlan {
            features,
            sequential: tiny,
            primary: unhinted(order.iter().map(|descriptor| descriptor.scheme)),
            reserve: Vec::new(),
            escalate_after: None,
            predicted: false,
        };
    }

    // Deterministic ranking: recorded score descending; schemes without
    // stats score lowest; ties (including all-missing) break by static
    // cost, then race rank.
    let mut ranked = scored;
    ranked.sort_by(|(a, a_stats), (b, b_stats)| {
        let a_score = a_stats.map(|s| s.score()).unwrap_or(f64::NEG_INFINITY);
        let b_score = b_stats.map(|s| s.score()).unwrap_or(f64::NEG_INFINITY);
        b_score
            .partial_cmp(&a_score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.cost
                    .relative_cost
                    .partial_cmp(&b.cost.relative_cost)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.race_rank.cmp(&b.race_rank))
    });
    let mut hinted: Vec<ScheduledScheme> = ranked
        .iter()
        .map(|(descriptor, stats)| ScheduledScheme {
            scheme: descriptor.scheme,
            gc_hint: stats.and_then(gc_hint),
        })
        .collect();
    if tiny {
        // Sequential trying already stops at the first conclusive verdict;
        // prediction just orders the attempts by expected merit. No reserve
        // wave — the loop *is* the escalation.
        return SchedulePlan {
            features,
            sequential: true,
            primary: hinted,
            reserve: Vec::new(),
            escalate_after: None,
            predicted: true,
        };
    }
    let mut reserve = hinted.split_off(PRIMARY_WAVE.min(hinted.len()));
    // The reserve escalates in race order — by that point the prediction
    // has already been wrong once.
    reserve.sort_by_key(|scheduled| scheduled.scheme.descriptor().race_rank);
    SchedulePlan {
        features,
        sequential: false,
        primary: hinted,
        escalate_after: (!reserve.is_empty()).then_some(STALL_AFTER),
        reserve,
        predicted: true,
    }
}
