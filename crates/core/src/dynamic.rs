//! Equivalence checking of *dynamic* quantum circuits — the paper's two
//! verification flows.
//!
//! * [`verify_dynamic_functional`]: full functional verification via the
//!   Section 4 transformation (reset substitution + deferred measurements)
//!   followed by conventional unitary equivalence checking.
//! * [`verify_fixed_input`]: fixed-input verification via the Section 5
//!   extraction of the measurement-outcome distribution, compared against the
//!   distribution of the other circuit.

use crate::equivalence::{Configuration, Equivalence};
use crate::unitary::{check_functional_equivalence_with, CheckError, FunctionalCheck};
use circuit::QuantumCircuit;
use dd::{Budget, LimitExceeded};
use sim::{
    extract_distribution_budgeted, ExtractionConfig, OutcomeDistribution, SimError,
    StateVectorSimulator,
};
use std::fmt;
use std::time::{Duration, Instant};
use transform::{align_to_reference, reconstruct_unitary, TransformError};

/// Error raised by the dynamic verification flows.
#[derive(Debug)]
pub enum DynamicCheckError {
    /// The unitary reconstruction failed.
    Transform(TransformError),
    /// The underlying functional check failed.
    Check(CheckError),
    /// A simulation or extraction failed.
    Simulation(SimError),
}

impl fmt::Display for DynamicCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicCheckError::Transform(e) => write!(f, "transformation failed: {e}"),
            DynamicCheckError::Check(e) => write!(f, "equivalence check failed: {e}"),
            DynamicCheckError::Simulation(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for DynamicCheckError {}

impl From<TransformError> for DynamicCheckError {
    fn from(e: TransformError) -> Self {
        DynamicCheckError::Transform(e)
    }
}

impl From<CheckError> for DynamicCheckError {
    fn from(e: CheckError) -> Self {
        DynamicCheckError::Check(e)
    }
}

impl From<SimError> for DynamicCheckError {
    fn from(e: SimError) -> Self {
        DynamicCheckError::Simulation(e)
    }
}

/// Report of a full functional verification of a dynamic circuit against a
/// static reference.
#[derive(Debug, Clone)]
pub struct FunctionalVerification {
    /// The verdict.
    pub equivalence: Equivalence,
    /// Time spent transforming the dynamic circuit (`t_trans`).
    pub transformation_time: Duration,
    /// Time spent in the unitary equivalence check (`t_ver`).
    pub verification_time: Duration,
    /// Number of fresh qubits the reconstruction introduced.
    pub added_qubits: usize,
    /// Diagnostics of the underlying functional check.
    pub check: FunctionalCheck,
}

/// Verifies that a dynamic circuit realises the same functionality as a
/// static reference circuit (the paper's Section 4 flow).
///
/// Both circuits may contain dynamic primitives; each is reconstructed into a
/// unitary circuit first. The reconstructed dynamic circuit is aligned to the
/// reference through its measurement bits, so the classical outputs define
/// which qubit is which.
///
/// # Errors
///
/// Propagates transformation and checking errors (register mismatch after
/// reconstruction, non-deferrable measurements, …).
///
/// # Examples
///
/// ```
/// use algorithms::qpe;
/// use qcec::{verify_dynamic_functional, Configuration};
///
/// let phi = 3.0 * std::f64::consts::PI / 8.0;
/// let static_qpe = qpe::qpe_static(phi, 3, true);
/// let iqpe = qpe::iqpe_dynamic(phi, 3);
/// let report = verify_dynamic_functional(&static_qpe, &iqpe, &Configuration::default())?;
/// assert!(report.equivalence.considered_equivalent());
/// # Ok::<(), qcec::DynamicCheckError>(())
/// ```
pub fn verify_dynamic_functional(
    reference: &QuantumCircuit,
    dynamic: &QuantumCircuit,
    config: &Configuration,
) -> Result<FunctionalVerification, DynamicCheckError> {
    verify_dynamic_functional_with(reference, dynamic, config, &Budget::unlimited())
}

/// Budget-aware variant of [`verify_dynamic_functional`].
///
/// The unitary reconstruction checks the budget's cancel token between
/// passes, and the functional equivalence check observes the budget inside
/// the miter construction (see
/// [`check_functional_equivalence_with`](crate::check_functional_equivalence_with)).
///
/// # Errors
///
/// Same as [`verify_dynamic_functional`], plus
/// [`CheckError::LimitExceeded`] wrapped in [`DynamicCheckError::Check`].
pub fn verify_dynamic_functional_with(
    reference: &QuantumCircuit,
    dynamic: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
) -> Result<FunctionalVerification, DynamicCheckError> {
    let cancelled =
        || DynamicCheckError::Check(CheckError::LimitExceeded(LimitExceeded::Cancelled));
    // Reconstruct both sides (a static reference passes through unchanged).
    let reference_rec = reconstruct_unitary(reference)?;
    if budget.is_cancelled() {
        return Err(cancelled());
    }
    let dynamic_rec = reconstruct_unitary(dynamic)?;
    let transformation_time = reference_rec.duration + dynamic_rec.duration;

    if budget.is_cancelled() {
        return Err(cancelled());
    }
    let aligned = align_to_reference(&reference_rec.circuit, &dynamic_rec.circuit)?;

    let start = Instant::now();
    let check =
        check_functional_equivalence_with(&reference_rec.circuit, &aligned, config, budget)?;
    let verification_time = start.elapsed();

    Ok(FunctionalVerification {
        equivalence: check.equivalence,
        transformation_time,
        verification_time,
        added_qubits: dynamic_rec.added_qubits,
        check,
    })
}

/// Report of a fixed-input (distribution) verification.
#[derive(Debug, Clone)]
pub struct FixedInputVerification {
    /// The verdict.
    pub equivalence: Equivalence,
    /// Total-variation distance between the two distributions.
    pub total_variation_distance: f64,
    /// Distribution of the first circuit.
    pub reference_distribution: OutcomeDistribution,
    /// Distribution of the second circuit.
    pub dynamic_distribution: OutcomeDistribution,
    /// Time to obtain the reference distribution (`t_sim` when the reference
    /// is static).
    pub reference_time: Duration,
    /// Time to obtain the dynamic circuit's distribution (`t_extract`).
    pub dynamic_time: Duration,
    /// Aggregated decision-diagram memory telemetry of both distribution
    /// computations.
    pub memory: dd::MemoryStats,
}

/// Obtains the measurement-outcome distribution of a circuit for the
/// all-zeros input: by plain simulation when the circuit is static, by the
/// Section 5 extraction scheme when it is dynamic.
pub fn outcome_distribution(
    circuit: &QuantumCircuit,
    extraction: &ExtractionConfig,
) -> Result<(OutcomeDistribution, Duration), DynamicCheckError> {
    outcome_distribution_with(circuit, extraction, &Budget::unlimited())
}

/// Budget-aware variant of [`outcome_distribution`]: both the branching
/// extraction and the plain simulation stop cooperatively when the budget's
/// cancel token fires or a resource limit trips.
///
/// # Errors
///
/// Propagates simulation/extraction errors, including
/// [`SimError::Interrupted`] wrapped in [`DynamicCheckError::Simulation`].
pub fn outcome_distribution_with(
    circuit: &QuantumCircuit,
    extraction: &ExtractionConfig,
    budget: &Budget,
) -> Result<(OutcomeDistribution, Duration), DynamicCheckError> {
    let (distribution, duration, _) = outcome_distribution_telemetry(circuit, extraction, budget)?;
    Ok((distribution, duration))
}

/// [`outcome_distribution_with`] plus the decision-diagram memory telemetry
/// of the computation.
fn outcome_distribution_telemetry(
    circuit: &QuantumCircuit,
    extraction: &ExtractionConfig,
    budget: &Budget,
) -> Result<(OutcomeDistribution, Duration, dd::MemoryStats), DynamicCheckError> {
    let start = Instant::now();
    if circuit.is_dynamic() {
        let result = extract_distribution_budgeted(circuit, None, extraction, budget)?;
        Ok((result.distribution, start.elapsed(), result.memory))
    } else {
        let mut sim = StateVectorSimulator::with_budget(circuit.num_qubits(), budget.clone());
        sim.run(circuit)?;
        let dist = sim.outcome_distribution();
        let memory = sim.memory_stats();
        Ok((dist, start.elapsed(), memory))
    }
}

/// Verifies that two circuits produce the same distribution of measurement
/// outcomes for the all-zeros input state (the paper's Section 5 flow).
///
/// # Errors
///
/// Propagates simulation/extraction errors; the distributions must be over
/// the same number of classical bits (otherwise the verdict is
/// [`Equivalence::NoInformation`]).
pub fn verify_fixed_input(
    reference: &QuantumCircuit,
    dynamic: &QuantumCircuit,
    config: &Configuration,
    extraction: &ExtractionConfig,
) -> Result<FixedInputVerification, DynamicCheckError> {
    verify_fixed_input_with(reference, dynamic, config, extraction, &Budget::unlimited())
}

/// Budget-aware variant of [`verify_fixed_input`]; see
/// [`outcome_distribution_with`] for how the budget is observed.
///
/// # Errors
///
/// Same as [`verify_fixed_input`], plus [`SimError::Interrupted`] wrapped in
/// [`DynamicCheckError::Simulation`].
pub fn verify_fixed_input_with(
    reference: &QuantumCircuit,
    dynamic: &QuantumCircuit,
    config: &Configuration,
    extraction: &ExtractionConfig,
    budget: &Budget,
) -> Result<FixedInputVerification, DynamicCheckError> {
    let (reference_distribution, reference_time, reference_memory) =
        outcome_distribution_telemetry(reference, extraction, budget)?;
    let (dynamic_distribution, dynamic_time, dynamic_memory) =
        outcome_distribution_telemetry(dynamic, extraction, budget)?;
    let memory = reference_memory.merged_with(&dynamic_memory);

    if reference_distribution.n_bits() != dynamic_distribution.n_bits() {
        return Ok(FixedInputVerification {
            equivalence: Equivalence::NoInformation,
            total_variation_distance: 1.0,
            reference_distribution,
            dynamic_distribution,
            reference_time,
            dynamic_time,
            memory,
        });
    }

    let tvd = reference_distribution.total_variation_distance(&dynamic_distribution);
    let equivalence = if tvd <= config.distribution_tolerance {
        Equivalence::Equivalent
    } else {
        Equivalence::NotEquivalent
    };
    Ok(FixedInputVerification {
        equivalence,
        total_variation_distance: tvd,
        reference_distribution,
        dynamic_distribution,
        reference_time,
        dynamic_time,
        memory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{bv, qft, qpe};

    #[test]
    fn iqpe_is_functionally_equivalent_to_qpe() {
        // The paper's Example 6 at 3-bit precision.
        let phi = 3.0 * std::f64::consts::PI / 8.0;
        let static_qpe = qpe::qpe_static(phi, 3, true);
        let iqpe = qpe::iqpe_dynamic(phi, 3);
        let report =
            verify_dynamic_functional(&static_qpe, &iqpe, &Configuration::default()).unwrap();
        assert!(report.equivalence.considered_equivalent());
        assert_eq!(report.added_qubits, 2);
        assert!(report.check.identity_fidelity > 1.0 - 1e-8);
    }

    #[test]
    fn dynamic_bv_is_functionally_equivalent_to_static_bv() {
        let hidden = bv::random_hidden_string(6, 11);
        let static_bv = bv::bv_static(&hidden, true);
        let dynamic_bv = bv::bv_dynamic(&hidden);
        let report =
            verify_dynamic_functional(&static_bv, &dynamic_bv, &Configuration::default()).unwrap();
        assert!(report.equivalence.considered_equivalent());
    }

    #[test]
    fn dynamic_qft_is_functionally_equivalent_to_static_qft() {
        let n = 5;
        let static_qft = qft::qft_static(n, None, true);
        let dynamic_qft = qft::qft_dynamic(n);
        let report =
            verify_dynamic_functional(&static_qft, &dynamic_qft, &Configuration::default())
                .unwrap();
        assert!(report.equivalence.considered_equivalent());
    }

    #[test]
    fn functional_check_detects_wrong_hidden_string() {
        let static_bv = bv::bv_static(&[true, false, true], true);
        let dynamic_bv = bv::bv_dynamic(&[true, true, true]);
        let report =
            verify_dynamic_functional(&static_bv, &dynamic_bv, &Configuration::default()).unwrap();
        assert_eq!(report.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn fixed_input_check_on_bv() {
        let hidden = bv::random_hidden_string(8, 3);
        let static_bv = bv::bv_static(&hidden, true);
        let dynamic_bv = bv::bv_dynamic(&hidden);
        let report = verify_fixed_input(
            &static_bv,
            &dynamic_bv,
            &Configuration::default(),
            &ExtractionConfig::default(),
        )
        .unwrap();
        assert_eq!(report.equivalence, Equivalence::Equivalent);
        assert!(report.total_variation_distance < 1e-9);
        assert_eq!(report.reference_distribution.len(), 1);
    }

    #[test]
    fn fixed_input_check_on_inexact_qpe() {
        // θ = 3/16 is not representable with 3 bits: both realizations must
        // produce the same non-trivial distribution.
        let phi = 3.0 * std::f64::consts::PI / 8.0;
        let static_qpe = qpe::qpe_static(phi, 3, true);
        let iqpe = qpe::iqpe_dynamic(phi, 3);
        let report = verify_fixed_input(
            &static_qpe,
            &iqpe,
            &Configuration::default(),
            &ExtractionConfig::default(),
        )
        .unwrap();
        assert_eq!(report.equivalence, Equivalence::Equivalent);
        assert!(report.dynamic_distribution.len() > 2);
    }

    #[test]
    fn fixed_input_check_detects_differences() {
        let static_bv = bv::bv_static(&[true, true, false], true);
        let dynamic_bv = bv::bv_dynamic(&[true, false, false]);
        let report = verify_fixed_input(
            &static_bv,
            &dynamic_bv,
            &Configuration::default(),
            &ExtractionConfig::default(),
        )
        .unwrap();
        assert_eq!(report.equivalence, Equivalence::NotEquivalent);
        assert!(report.total_variation_distance > 0.9);
    }

    #[test]
    fn qft_fixed_input_matches_despite_dense_distribution() {
        let n = 4;
        let static_qft = qft::qft_static(n, None, true);
        let dynamic_qft = qft::qft_dynamic(n);
        let report = verify_fixed_input(
            &static_qft,
            &dynamic_qft,
            &Configuration::default(),
            &ExtractionConfig::default(),
        )
        .unwrap();
        assert_eq!(report.equivalence, Equivalence::Equivalent);
        assert_eq!(report.dynamic_distribution.len(), 1 << n);
    }

    #[test]
    fn timings_are_recorded() {
        let hidden = bv::random_hidden_string(5, 9);
        let report = verify_dynamic_functional(
            &bv::bv_static(&hidden, true),
            &bv::bv_dynamic(&hidden),
            &Configuration::default(),
        )
        .unwrap();
        assert!(report.transformation_time.as_nanos() > 0);
        assert!(report.verification_time.as_nanos() > 0);
    }
}
