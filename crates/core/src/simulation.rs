//! Simulative equivalence checking with random computational-basis stimuli.
//!
//! Instead of proving `U = U'`, this checker compares the action of both
//! circuits on a set of random basis states. A single mismatch disproves
//! equivalence; agreement on all stimuli yields
//! [`Equivalence::ProbablyEquivalent`]. For circuits that differ in more than
//! a measure-zero set of inputs, very few stimuli suffice in practice — the
//! rationale behind QCEC's simulation-driven checks.

use crate::equivalence::{Configuration, Equivalence};
use crate::unitary::CheckError;
use circuit::QuantumCircuit;
use dd::{Budget, LimitExceeded};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{SimError, StateVectorSimulator};
use std::time::{Duration, Instant};

/// Outcome of a simulative equivalence check.
#[derive(Debug, Clone)]
pub struct SimulativeCheck {
    /// The verdict: [`Equivalence::ProbablyEquivalent`] or
    /// [`Equivalence::NotEquivalent`].
    pub equivalence: Equivalence,
    /// Number of stimuli that were simulated.
    pub runs: usize,
    /// Worst (lowest) state fidelity observed across the stimuli.
    pub min_fidelity: f64,
    /// Wall-clock time of the check.
    pub duration: Duration,
    /// Aggregated decision-diagram memory telemetry of all simulator runs.
    pub memory: dd::MemoryStats,
}

/// Compares the action of two unitary circuits on random computational-basis
/// states.
///
/// # Errors
///
/// [`CheckError::RegisterMismatch`] when the register sizes differ,
/// [`CheckError::NonUnitaryCircuit`] when either circuit contains dynamic
/// primitives (reconstruct first).
pub fn check_simulative_equivalence(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
) -> Result<SimulativeCheck, CheckError> {
    check_simulative_equivalence_with(left, right, config, &Budget::unlimited())
}

/// Maps a simulator failure onto the checker's error type, keeping budget
/// interruptions distinguishable from genuinely unsupported circuits.
fn run_error(which: &'static str, error: SimError) -> CheckError {
    match error {
        SimError::Interrupted(reason) => CheckError::LimitExceeded(reason),
        other => CheckError::NonUnitaryCircuit {
            which,
            operation: other.to_string(),
        },
    }
}

/// Budget-aware variant of [`check_simulative_equivalence`].
///
/// The budget's cancel token is checked between stimuli and inside each
/// simulation run, so a cancelled check returns quickly even mid-circuit.
///
/// # Errors
///
/// Same as [`check_simulative_equivalence`], plus
/// [`CheckError::LimitExceeded`] when the budget stops the check.
pub fn check_simulative_equivalence_with(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
) -> Result<SimulativeCheck, CheckError> {
    if left.num_qubits() != right.num_qubits() {
        return Err(CheckError::RegisterMismatch {
            left: left.num_qubits(),
            right: right.num_qubits(),
        });
    }
    let start = Instant::now();
    let n = left.num_qubits();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut min_fidelity = 1.0f64;
    let mut runs = 0;
    let mut memory = dd::MemoryStats::default();

    let left_unitary = left.without_measurements();
    let right_unitary = right.without_measurements();

    for run in 0..config.simulation_runs.max(1) {
        if budget.is_cancelled() {
            return Err(CheckError::LimitExceeded(LimitExceeded::Cancelled));
        }
        // The first stimulus is always |0…0⟩ (the most common fixed input);
        // the remaining stimuli are random basis states.
        let bits: Vec<bool> = if run == 0 {
            vec![false; n]
        } else {
            (0..n).map(|_| rng.r#gen::<bool>()).collect()
        };
        // Both stimulus runs share one simulator, so the second run reuses
        // the gate diagrams the first one built.
        let mut sim = StateVectorSimulator::with_memory_and_initial_state(
            &bits,
            budget.clone(),
            config.memory,
        );
        sim.run(&left_unitary).map_err(|e| run_error("left", e))?;
        let fidelity = sim
            .fidelity_with_rerun(&right_unitary, &bits)
            .map_err(|e| run_error("right", e))?;
        memory = memory.merged_with(&sim.memory_stats());
        min_fidelity = min_fidelity.min(fidelity);
        runs += 1;
        if fidelity < 1.0 - config.tolerance {
            return Ok(SimulativeCheck {
                equivalence: Equivalence::NotEquivalent,
                runs,
                min_fidelity,
                duration: start.elapsed(),
                memory,
            });
        }
    }

    Ok(SimulativeCheck {
        equivalence: Equivalence::ProbablyEquivalent,
        runs,
        min_fidelity,
        duration: start.elapsed(),
        memory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{ghz, random};

    #[test]
    fn equivalent_circuits_pass_all_stimuli() {
        let a = ghz::ghz(5, false);
        let mut b = circuit::QuantumCircuit::new(5, 0);
        b.h(0);
        for q in 1..5 {
            b.h(q).cz(q - 1, q).h(q);
        }
        let check = check_simulative_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::ProbablyEquivalent);
        assert!(check.min_fidelity > 1.0 - 1e-9);
        assert_eq!(check.runs, Configuration::default().simulation_runs);
    }

    #[test]
    fn different_circuits_are_detected() {
        let a = random::random_unitary_circuit(4, 20, 1);
        let mut b = a.clone();
        b.x(0);
        let check = check_simulative_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
        assert!(check.runs <= Configuration::default().simulation_runs);
    }

    #[test]
    fn phase_oracle_difference_requires_superposition_to_show_up() {
        // A circuit differing only by a CZ behaves identically on basis
        // states that never set both qubits; the first stimulus |00⟩ cannot
        // distinguish them, later random stimuli may. This documents the
        // "probably" in ProbablyEquivalent.
        let mut a = circuit::QuantumCircuit::new(2, 0);
        a.h(0);
        let mut b = circuit::QuantumCircuit::new(2, 0);
        b.h(0);
        b.cz(0, 1);
        let config = Configuration {
            simulation_runs: 16,
            ..Default::default()
        };
        let check = check_simulative_equivalence(&a, &b, &config).unwrap();
        // |x1⟩ stimuli reveal the difference; with 16 runs this is
        // overwhelmingly likely.
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn register_mismatch_is_rejected() {
        let a = ghz::ghz(3, false);
        let b = ghz::ghz(5, false);
        assert!(matches!(
            check_simulative_equivalence(&a, &b, &Configuration::default()),
            Err(CheckError::RegisterMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_in_the_seed() {
        let a = random::random_unitary_circuit(3, 15, 7);
        let b = random::random_unitary_circuit(3, 15, 8);
        let config = Configuration::default();
        let first = check_simulative_equivalence(&a, &b, &config).unwrap();
        let second = check_simulative_equivalence(&a, &b, &config).unwrap();
        assert_eq!(first.equivalence, second.equivalence);
        assert_eq!(first.runs, second.runs);
    }
}
