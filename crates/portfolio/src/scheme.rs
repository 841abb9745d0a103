//! The scheme registry: one [`SchemeDescriptor`] per verification scheme.
//!
//! The [`Scheme`] enum is a scheme's identity; its **registry** entry
//! carries
//!
//! * a stable [`&'static str` name](SchemeDescriptor::name) (formatted once,
//!   at compile time — reports do not allocate a `String` per lookup),
//! * an [applicability predicate](SchemeDescriptor::applicable) over the
//!   circuit pair, and
//! * static cost features ([`CostProfile`]) and the heuristic launch ranks
//!   the racing/sequential orders are derived from.
//!
//! [`run`] executes a scheme under a budget on private decision-diagram
//! packages: one body per scheme family, parameterised by the gate
//! schedule ([`Strategy`]) where the family has one.
//!
//! The engine is a launcher over registry entries; the
//! [scheduler](crate::scheduler) decides *which* entries to launch and in
//! what order. Adding a scheme means adding one descriptor here and one
//! arm to [`run`] — no engine changes.

use crate::engine::PortfolioConfig;
use circuit::QuantumCircuit;
use dd::{Budget, LimitExceeded, MemoryStats};
use qcec::{
    check_functional_equivalence_with, check_simulative_equivalence_with,
    verify_dynamic_functional_with, verify_fixed_input_with, CheckError, Configuration,
    DynamicCheckError, Equivalence, Strategy,
};
use sim::SimError;

/// One verification scheme the portfolio can launch.
///
/// The enum is the scheme's *identity* — it names the scheme in reports,
/// JSON and telemetry keys. Everything behavioural (applicability, cost
/// features, launch ranks) lives in the scheme's [`SchemeDescriptor`],
/// obtained via [`Scheme::descriptor`], and its body in [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Scheme {
    /// Miter-based functional equivalence of unitary circuits with the given
    /// gate schedule (requires both circuits to be free of dynamic
    /// primitives).
    Functional(Strategy),
    /// Random-stimulus simulation of unitary circuits; refutes equivalence
    /// conclusively, confirms it only probabilistically.
    Simulative,
    /// The paper's Section 4 flow — unitary reconstruction followed by a
    /// functional check with the given gate schedule. Handles dynamic
    /// circuits (static circuits pass through the reconstruction unchanged).
    DynamicFunctional(Strategy),
    /// The paper's Section 5 flow — compare complete measurement-outcome
    /// distributions for the all-zeros input.
    FixedInput,
}

impl Scheme {
    /// Short stable name used in reports, benchmarks and telemetry keys.
    ///
    /// The name is a static string carried by the scheme's registry
    /// descriptor — no allocation per call.
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// The registry entry describing this scheme.
    ///
    /// # Panics
    ///
    /// Never — every `Scheme` value has exactly one registry entry (asserted
    /// by the crate's tests).
    pub fn descriptor(self) -> &'static SchemeDescriptor {
        REGISTRY
            .iter()
            .find(|descriptor| descriptor.scheme == self)
            .expect("every scheme has a registry entry")
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Raw outcome of one scheme execution, before the engine wraps it into a
/// [`SchemeReport`](crate::SchemeReport) with timing attached.
#[derive(Debug)]
pub struct SchemeOutcome {
    /// The verdict, when the scheme finished.
    pub verdict: Option<Equivalence>,
    /// Peak decision-diagram size observed (miter size for functional
    /// schemes, distribution support for the fixed-input scheme).
    pub peak_nodes: Option<usize>,
    /// Failure description when the scheme neither finished nor was
    /// cancelled.
    pub error: Option<String>,
    /// Whether the scheme stopped because a competitor won.
    pub cancelled: bool,
    /// Decision-diagram memory telemetry, when the scheme ran far enough to
    /// report it.
    pub memory: Option<MemoryStats>,
}

/// Static cost features of a scheme, available without any recorded
/// telemetry. The scheduler uses them to break ties between predictions.
#[derive(Debug, Clone, Copy)]
pub struct CostProfile {
    /// Relative prior cost on a typical instance (1.0 = a plain miter
    /// pass). Used only as a deterministic tie-break between schemes with
    /// identical recorded scores.
    pub relative_cost: f64,
}

/// A registry entry: everything the engine and scheduler need to know about
/// one scheme.
#[derive(Debug, Clone, Copy)]
pub struct SchemeDescriptor {
    /// The scheme's identity.
    pub scheme: Scheme,
    /// Stable display/report name (static — formatted once, here).
    pub name: &'static str,
    /// Whether the scheme applies to the given circuit pair.
    pub applicable: fn(&QuantumCircuit, &QuantumCircuit) -> bool,
    /// Position in the threaded race launch order (0 = the heuristic
    /// favourite, spawned first).
    pub race_rank: u8,
    /// Position in the tiny-instance sequential try order.
    pub sequential_rank: u8,
    /// Static cost features.
    pub cost: CostProfile,
}

fn static_pair(left: &QuantumCircuit, right: &QuantumCircuit) -> bool {
    !(left.is_dynamic() || right.is_dynamic())
}

fn dynamic_pair(left: &QuantumCircuit, right: &QuantumCircuit) -> bool {
    left.is_dynamic() || right.is_dynamic()
}

/// The scheme registry.
///
/// Race ranks reproduce the historical launch orders: static pairs lead
/// with the proportional miter schedule, dynamic pairs with the fixed-input
/// extraction. Sequential ranks reproduce the tiny-instance try orders
/// (proportional schedule first in both cases). Ranks only order schemes
/// *within* the applicable subset, so static and dynamic schemes may reuse
/// rank values.
pub static REGISTRY: [SchemeDescriptor; 9] = [
    SchemeDescriptor {
        scheme: Scheme::Functional(Strategy::Proportional),
        name: "functional(proportional)",
        applicable: static_pair,
        race_rank: 0,
        sequential_rank: 0,
        cost: CostProfile { relative_cost: 1.0 },
    },
    SchemeDescriptor {
        scheme: Scheme::Functional(Strategy::Aligned),
        name: "functional(aligned)",
        applicable: static_pair,
        race_rank: 1,
        sequential_rank: 1,
        cost: CostProfile {
            // Near-free on insertion-aligned pairs (routing steps), but on a
            // typical unrelated pair it degrades to a proportional pass plus
            // pointer bookkeeping — so its *prior* sits just above the plain
            // proportional schedule; recorded telemetry learns the
            // insertion-pair advantage per bucket.
            relative_cost: 1.1,
        },
    },
    SchemeDescriptor {
        scheme: Scheme::Functional(Strategy::OneToOne),
        name: "functional(one-to-one)",
        applicable: static_pair,
        race_rank: 2,
        sequential_rank: 2,
        cost: CostProfile { relative_cost: 1.2 },
    },
    SchemeDescriptor {
        scheme: Scheme::Functional(Strategy::Reference),
        name: "functional(reference)",
        applicable: static_pair,
        race_rank: 3,
        sequential_rank: 3,
        cost: CostProfile { relative_cost: 2.0 },
    },
    SchemeDescriptor {
        scheme: Scheme::Simulative,
        name: "simulative",
        applicable: static_pair,
        race_rank: 4,
        sequential_rank: 4,
        cost: CostProfile { relative_cost: 0.8 },
    },
    SchemeDescriptor {
        scheme: Scheme::FixedInput,
        name: "fixed-input",
        applicable: dynamic_pair,
        race_rank: 0,
        sequential_rank: 1,
        cost: CostProfile { relative_cost: 0.9 },
    },
    SchemeDescriptor {
        scheme: Scheme::DynamicFunctional(Strategy::Proportional),
        name: "dynamic-functional(proportional)",
        applicable: dynamic_pair,
        race_rank: 1,
        sequential_rank: 0,
        cost: CostProfile { relative_cost: 1.0 },
    },
    SchemeDescriptor {
        scheme: Scheme::DynamicFunctional(Strategy::OneToOne),
        name: "dynamic-functional(one-to-one)",
        applicable: dynamic_pair,
        race_rank: 2,
        sequential_rank: 2,
        cost: CostProfile { relative_cost: 1.2 },
    },
    SchemeDescriptor {
        scheme: Scheme::DynamicFunctional(Strategy::Reference),
        name: "dynamic-functional(reference)",
        applicable: dynamic_pair,
        race_rank: 3,
        sequential_rank: 3,
        cost: CostProfile { relative_cost: 2.0 },
    },
];

/// The full registry, in declaration order.
pub fn registry() -> &'static [SchemeDescriptor] {
    &REGISTRY
}

/// The registry entries applicable to a circuit pair, in race-launch order
/// (rank 0 — the heuristic favourite — first).
pub fn applicable_descriptors(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
) -> Vec<&'static SchemeDescriptor> {
    let mut schemes: Vec<&'static SchemeDescriptor> = REGISTRY
        .iter()
        .filter(|descriptor| (descriptor.applicable)(left, right))
        .collect();
    schemes.sort_by_key(|descriptor| descriptor.race_rank);
    schemes
}

// ---------------------------------------------------------------------------
// Scheme bodies
// ---------------------------------------------------------------------------

/// Runs `scheme` on a circuit pair under `budget`: the scheme body the
/// engine wraps with timing and cancellation.
pub fn run(
    scheme: Scheme,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeOutcome {
    match scheme {
        Scheme::Functional(strategy) => run_functional(strategy, left, right, config, budget),
        Scheme::Simulative => run_simulative(left, right, config, budget),
        Scheme::DynamicFunctional(strategy) => {
            run_dynamic_functional(strategy, left, right, config, budget)
        }
        Scheme::FixedInput => run_fixed_input(left, right, config, budget),
    }
}

fn run_functional(
    strategy: Strategy,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeOutcome {
    let configuration = Configuration {
        strategy,
        ..config.configuration
    };
    match check_functional_equivalence_with(left, right, &configuration, budget) {
        Ok(check) => SchemeOutcome {
            verdict: Some(check.equivalence),
            peak_nodes: Some(check.peak_diagram_size),
            error: None,
            cancelled: false,
            memory: Some(check.memory),
        },
        Err(error) => classify_check_error(error),
    }
}

fn run_simulative(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeOutcome {
    match check_simulative_equivalence_with(left, right, &config.configuration, budget) {
        Ok(check) => SchemeOutcome {
            verdict: Some(check.equivalence),
            peak_nodes: None,
            error: None,
            cancelled: false,
            memory: Some(check.memory),
        },
        Err(error) => classify_check_error(error),
    }
}

fn run_dynamic_functional(
    strategy: Strategy,
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeOutcome {
    let configuration = Configuration {
        strategy,
        ..config.configuration
    };
    match verify_dynamic_functional_with(left, right, &configuration, budget) {
        Ok(report) => SchemeOutcome {
            verdict: Some(report.equivalence),
            peak_nodes: Some(report.check.peak_diagram_size),
            error: None,
            cancelled: false,
            memory: Some(report.check.memory),
        },
        Err(error) => classify_dynamic_error(error),
    }
}

fn run_fixed_input(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &PortfolioConfig,
    budget: &Budget,
) -> SchemeOutcome {
    match verify_fixed_input_with(
        left,
        right,
        &config.configuration,
        &config.extraction,
        budget,
    ) {
        Ok(report) => {
            let support = report.reference_distribution.len() + report.dynamic_distribution.len();
            SchemeOutcome {
                verdict: Some(report.equivalence),
                peak_nodes: Some(support),
                error: None,
                cancelled: false,
                memory: Some(report.memory),
            }
        }
        Err(error) => classify_dynamic_error(error),
    }
}

fn classify_check_error(error: CheckError) -> SchemeOutcome {
    let (error, cancelled) = match error {
        CheckError::LimitExceeded(LimitExceeded::Cancelled) => (None, true),
        other => (Some(other.to_string()), false),
    };
    SchemeOutcome {
        verdict: None,
        peak_nodes: None,
        error,
        cancelled,
        memory: None,
    }
}

fn classify_dynamic_error(error: DynamicCheckError) -> SchemeOutcome {
    let (error, cancelled) = match error {
        DynamicCheckError::Check(CheckError::LimitExceeded(LimitExceeded::Cancelled))
        | DynamicCheckError::Simulation(SimError::Interrupted(LimitExceeded::Cancelled)) => {
            (None, true)
        }
        other => (Some(other.to_string()), false),
    };
    SchemeOutcome {
        verdict: None,
        peak_nodes: None,
        error,
        cancelled,
        memory: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_has_exactly_one_registry_entry() {
        for descriptor in registry() {
            let hits = registry()
                .iter()
                .filter(|d| d.scheme == descriptor.scheme)
                .count();
            assert_eq!(hits, 1, "{} registered {hits} times", descriptor.name);
            // The descriptor lookup resolves to the entry itself.
            assert_eq!(descriptor.scheme.name(), descriptor.name);
        }
    }

    #[test]
    fn ranks_are_unique_within_each_applicability_class() {
        for (class, expected) in [(static_pair as fn(&_, &_) -> bool, 5), (dynamic_pair, 4)] {
            let members: Vec<_> = registry()
                .iter()
                .filter(|d| std::ptr::fn_addr_eq(d.applicable, class))
                .collect();
            assert_eq!(members.len(), expected);
            for rank_of in [
                |d: &SchemeDescriptor| d.race_rank,
                |d: &SchemeDescriptor| d.sequential_rank,
            ] {
                let mut ranks: Vec<u8> = members.iter().map(|d| rank_of(d)).collect();
                ranks.sort_unstable();
                let expected_ranks: Vec<u8> = (0..expected as u8).collect();
                assert_eq!(ranks, expected_ranks);
            }
        }
    }
}
