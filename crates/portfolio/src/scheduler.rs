//! The adaptive scheduler: turns a circuit pair, a policy and recorded
//! telemetry into a launch plan.
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
//! Under [`SchedulePolicy::Race`] — the default, and the paper's original
//! proposal — every applicable scheme launches at once in the registry's
//! race order. Under [`SchedulePolicy::Predicted`] the scheduler scores
//! each applicable scheme against the [`TelemetryStore`] stats of the
//! pair's [feature bucket](crate::telemetry::FeatureBucket) and launches
//! only the top-`k` predicted winners, escalating to the full portfolio when
//! the primary wave stalls or finishes inconclusively. **With no recorded
//! stats for the bucket the predicted plan degrades to the exact race-
//! everything plan**, so a cold stats file never changes behaviour.

use crate::engine::PortfolioConfig;
use crate::scheme::{applicable_descriptors, Scheme, SchemeDescriptor};
use crate::telemetry::{PairFeatures, TelemetryStore};
use circuit::QuantumCircuit;
use dd::DEFAULT_GC_THRESHOLD;
use std::time::Duration;

/// How the portfolio launches the applicable schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Launch every applicable scheme at once (the paper's proposal and the
    /// default): first conclusive verdict wins, losers are cancelled.
    #[default]
    Race,
    /// Launch only the `k` schemes the recorded telemetry predicts to win,
    /// escalating to the rest of the portfolio when no conclusive verdict
    /// has arrived after `escalate_after` (or when every launched scheme
    /// finished inconclusively before that). Degrades to [`Race`](Self::Race)
    /// when the telemetry holds no stats for the pair's feature bucket.
    Predicted {
        /// Predicted winners to launch up front (at least 1).
        k: usize,
        /// Stall deadline before the reserve wave launches.
        escalate_after: Duration,
    },
}

impl SchedulePolicy {
    /// The default predicted policy (`k = 2`, escalate after 2 s) — what
    /// `verify --stats-file` switches to.
    pub fn predicted() -> Self {
        SchedulePolicy::Predicted {
            k: 2,
            escalate_after: Duration::from_secs(2),
        }
    }
}

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
    /// Dense-kernel cutoff hint, same contract as
    /// [`gc_hint`](Self::gc_hint): it can only *lower*
    /// [`MemoryConfig::dense_cutoff`](dd::MemoryConfig) (toward 0 =
    /// disabled), never raise it, and only fires on near-identity buckets
    /// whose recorded peaks say the dense terminal blocks never amortized.
    /// `None` keeps the configured cutoff.
    pub dense_hint: Option<u32>,
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
    /// Schemes launched immediately, in launch order (index 0 is the race's
    /// inline favourite).
    pub primary: Vec<ScheduledScheme>,
    /// Schemes held back for escalation (empty under [`SchedulePolicy::Race`]).
    pub reserve: Vec<ScheduledScheme>,
    /// How long to wait for a conclusive verdict before launching the
    /// reserve (`None` when there is no reserve).
    pub escalate_after: Option<Duration>,
    /// Whether recorded telemetry actually steered this plan (`false` for
    /// race plans and for predicted plans that degraded to racing on a cold
    /// bucket).
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
            dense_hint: None,
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

/// Largest recorded peak (nodes) below which the dense terminal kernels are
/// treated as a measured loss on a near-identity bucket. The dense path
/// pays by amortizing cache misses over wide contiguous amplitude blocks;
/// a structured miter that never grew past a few thousand nodes never
/// *had* such blocks, so every dense expansion was conversion overhead.
/// Peak-node telemetry is a proxy — the kernels are not timed per se —
/// which is why the hint additionally requires the near-identity bucket,
/// where the dense-parity benches measured the loss directly.
pub const DENSE_LOSS_PEAK_CEILING: u64 = 1 << 12;

/// Derives the dense-cutoff hint for one scheme from its bucket stats: on
/// a near-identity bucket whose recorded peaks all sit under
/// [`DENSE_LOSS_PEAK_CEILING`], the hint lowers the cutoff to 0 (node-at-
/// a-time all the way down). Like [`gc_hint`] it never raises anything —
/// off buckets and schemes without peak history keep the configured
/// cutoff, so a cold stats file changes nothing.
fn dense_hint(
    bucket: &crate::telemetry::FeatureBucket,
    stats: &crate::telemetry::SchemeStats,
) -> Option<u32> {
    if !bucket.near_identity || stats.peak_samples == 0 {
        return None;
    }
    (stats.peak_nodes_max <= DENSE_LOSS_PEAK_CEILING).then_some(0)
}

/// Builds the launch plan for a circuit pair.
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
    // the predicted policy then degrades to the exact race plan.
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

    let race_plan = |sequential: bool| {
        let mut order: Vec<&SchemeDescriptor> = candidates.clone();
        if sequential {
            order.sort_by_key(|descriptor| descriptor.sequential_rank);
        }
        SchedulePlan {
            features,
            sequential,
            primary: unhinted(order.iter().map(|descriptor| descriptor.scheme)),
            reserve: Vec::new(),
            escalate_after: None,
            predicted: false,
        }
    };

    match config.policy {
        SchedulePolicy::Race => race_plan(tiny),
        SchedulePolicy::Predicted { .. } if !have_stats => race_plan(tiny),
        SchedulePolicy::Predicted { k, escalate_after } => {
            // Deterministic ranking: recorded score descending; schemes
            // without stats score lowest; ties (including all-missing)
            // break by static cost, then race rank.
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
            let hinted: Vec<ScheduledScheme> = ranked
                .iter()
                .map(|(descriptor, stats)| ScheduledScheme {
                    scheme: descriptor.scheme,
                    gc_hint: stats.and_then(gc_hint),
                    dense_hint: stats.and_then(|stats| dense_hint(&bucket, stats)),
                })
                .collect();
            if tiny {
                // Sequential trying already stops at the first conclusive
                // verdict; prediction just orders the attempts by expected
                // merit. No reserve wave — the loop *is* the escalation.
                return SchedulePlan {
                    features,
                    sequential: true,
                    primary: hinted,
                    reserve: Vec::new(),
                    escalate_after: None,
                    predicted: true,
                };
            }
            let k = k.max(1).min(hinted.len());
            let mut primary: Vec<ScheduledScheme> = hinted[..k].to_vec();
            let mut reserve: Vec<ScheduledScheme> = hinted[k..].to_vec();
            // A primary wave of only non-proving schemes (e.g. the
            // simulative check, which refutes conclusively but can never
            // *prove* equivalence) would guarantee an escalation on every
            // equivalent pair. Extend the wave with the best-ranked proving
            // scheme so one conclusive-capable scheme always launches up
            // front.
            let proves =
                |scheduled: &ScheduledScheme| scheduled.scheme.descriptor().cost.proves_equivalence;
            if !primary.iter().any(proves) {
                if let Some(position) = reserve.iter().position(proves) {
                    let promoted = reserve.remove(position);
                    primary.push(promoted);
                }
            }
            // The reserve escalates in race order — by that point the
            // prediction has already been wrong once.
            reserve.sort_by_key(|scheduled| scheduled.scheme.descriptor().race_rank);
            SchedulePlan {
                features,
                sequential: false,
                primary,
                escalate_after: (!reserve.is_empty()).then_some(escalate_after),
                reserve,
                predicted: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_race() {
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Race);
    }
}
