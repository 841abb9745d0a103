//! Shot-based stochastic simulation of dynamic circuits.
//!
//! Section 5 of the paper discusses — and dismisses — the most obvious way of
//! obtaining the measurement-outcome distribution of a dynamic circuit:
//! simulate it over and over, sampling a concrete outcome at every
//! measurement and reset, and histogram the observed classical records. The
//! approach handles every dynamic primitive trivially but needs "huge amounts
//! of individual runs in order to reason about the output distribution in a
//! statistically significant way".
//!
//! This module implements that baseline so the claim can be quantified: the
//! ablation benchmarks compare the number of shots required to approximate
//! the exact distribution (as produced by [`extract_distribution`]) within a
//! given total-variation distance against the cost of a single extraction.
//!
//! [`extract_distribution`]: crate::extract_distribution

use crate::distribution::OutcomeDistribution;
use crate::error::SimError;
use crate::gate_map;
use circuit::{OpKind, QuantumCircuit};
use dd::{gates, DdPackage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Configuration of a stochastic (shot-based) simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotConfig {
    /// Number of end-to-end circuit executions to sample.
    pub shots: usize,
    /// Seed of the pseudo-random number generator, so runs are reproducible.
    pub seed: u64,
}

impl Default for ShotConfig {
    fn default() -> Self {
        ShotConfig {
            shots: 1024,
            seed: 0,
        }
    }
}

/// Result of a stochastic simulation.
#[derive(Debug, Clone)]
pub struct ShotResult {
    /// Empirical distribution of the classical records (normalised).
    pub distribution: OutcomeDistribution,
    /// Number of shots that were executed.
    pub shots: usize,
    /// Wall-clock time of the sampling run.
    pub duration: Duration,
}

/// Samples the classical record of a single end-to-end execution of
/// `circuit`, realising every measurement and reset stochastically.
///
/// # Errors
///
/// Never fails for well-formed circuits; the `Result` mirrors the other
/// simulator entry points (an out-of-range index would panic inside the
/// decision-diagram package instead).
pub fn sample_record(circuit: &QuantumCircuit, rng: &mut impl Rng) -> Result<Vec<bool>, SimError> {
    let mut package = DdPackage::new(circuit.num_qubits());
    let mut state = package.zero_state();
    let mut bits = vec![false; circuit.num_bits()];
    for op in circuit.iter() {
        match &op.kind {
            OpKind::Barrier => {}
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => {
                let apply = match op.condition {
                    None => true,
                    Some(cond) => bits[cond.bit] == cond.value,
                };
                if apply {
                    let matrix = gate_map::gate_matrix(*gate);
                    let dd_controls = gate_map::controls(controls);
                    state = package.apply_gate(state, &matrix, *target, &dd_controls);
                }
            }
            OpKind::Measure { qubit, bit } => {
                let (p0, p1) = package.probabilities(state, *qubit);
                let outcome = rng.gen::<f64>() >= p0;
                state =
                    package.project(state, *qubit, outcome, Some(if outcome { p1 } else { p0 }));
                bits[*bit] = outcome;
            }
            OpKind::Reset { qubit } => {
                let (p0, p1) = package.probabilities(state, *qubit);
                let outcome = rng.gen::<f64>() >= p0;
                state =
                    package.project(state, *qubit, outcome, Some(if outcome { p1 } else { p0 }));
                if outcome {
                    state = package.apply_gate(state, &gates::x(), *qubit, &[]);
                }
            }
        }
    }
    Ok(bits)
}

/// Runs `config.shots` stochastic executions of `circuit` and histograms the
/// observed classical records.
///
/// # Errors
///
/// Propagates errors from [`sample_record`] (none for well-formed circuits).
///
/// # Examples
///
/// ```
/// use circuit::QuantumCircuit;
/// use sim::{sample_distribution, ShotConfig};
///
/// let mut qc = QuantumCircuit::new(1, 1);
/// qc.h(0).measure(0, 0);
/// let result = sample_distribution(&qc, &ShotConfig { shots: 2000, seed: 7 })?;
/// let p1 = result.distribution.probability(&[true]);
/// assert!((p1 - 0.5).abs() < 0.1);
/// # Ok::<(), sim::SimError>(())
/// ```
pub fn sample_distribution(
    circuit: &QuantumCircuit,
    config: &ShotConfig,
) -> Result<ShotResult, SimError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut distribution = OutcomeDistribution::new(circuit.num_bits());
    let weight = 1.0 / config.shots.max(1) as f64;
    for _ in 0..config.shots {
        let record = sample_record(circuit, &mut rng)?;
        distribution.add(record, weight);
    }
    Ok(ShotResult {
        distribution,
        shots: config.shots,
        duration: start.elapsed(),
    })
}

/// Keeps doubling the shot count until the empirical distribution is within
/// `tolerance` total-variation distance of `reference`, or `max_shots` is
/// reached. Returns the number of shots that sufficed (`Err(shots_used)` when
/// the budget ran out).
///
/// This quantifies the paper's argument that stochastic sampling needs "huge
/// amounts of individual runs" compared to a single run of the extraction
/// scheme.
///
/// # Errors
///
/// Returns `Err(max_shots)` when the tolerance was not reached within the
/// budget.
pub fn shots_to_reach_tolerance(
    circuit: &QuantumCircuit,
    reference: &OutcomeDistribution,
    tolerance: f64,
    max_shots: usize,
    seed: u64,
) -> Result<usize, usize> {
    let mut shots = 64;
    loop {
        let config = ShotConfig { shots, seed };
        let result = sample_distribution(circuit, &config)
            .expect("stochastic sampling of a well-formed circuit");
        if result.distribution.total_variation_distance(reference) <= tolerance {
            return Ok(shots);
        }
        if shots >= max_shots {
            return Err(max_shots);
        }
        shots = (shots * 2).min(max_shots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::QuantumCircuit;

    #[test]
    fn deterministic_circuit_yields_single_record() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.x(0).measure(0, 0).measure(1, 1);
        let result = sample_distribution(&qc, &ShotConfig { shots: 50, seed: 1 }).unwrap();
        assert_eq!(result.distribution.len(), 1);
        assert!((result.distribution.probability(&[true, false]) - 1.0).abs() < 1e-12);
        assert_eq!(result.shots, 50);
    }

    #[test]
    fn sampling_is_reproducible_for_a_fixed_seed() {
        let mut qc = QuantumCircuit::new(1, 1);
        qc.h(0).measure(0, 0);
        let a = sample_distribution(
            &qc,
            &ShotConfig {
                shots: 128,
                seed: 3,
            },
        )
        .unwrap();
        let b = sample_distribution(
            &qc,
            &ShotConfig {
                shots: 128,
                seed: 3,
            },
        )
        .unwrap();
        assert!(a.distribution.approx_eq(&b.distribution, 1e-12));
    }

    #[test]
    fn classically_controlled_correction_is_respected() {
        // Measure |+⟩, then flip a second qubit when the outcome was 1: the
        // two classical bits must always agree.
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).measure(0, 0).x_if(1, 0).measure(1, 1);
        let result = sample_distribution(
            &qc,
            &ShotConfig {
                shots: 200,
                seed: 11,
            },
        )
        .unwrap();
        for (record, p) in result.distribution.iter() {
            assert_eq!(record[0], record[1], "records disagree with p = {p}");
        }
    }

    #[test]
    fn reset_restores_the_ground_state() {
        let mut qc = QuantumCircuit::new(1, 2);
        qc.h(0).measure(0, 0).reset(0).measure(0, 1);
        let result = sample_distribution(
            &qc,
            &ShotConfig {
                shots: 300,
                seed: 5,
            },
        )
        .unwrap();
        // Classical bit 1 is measured after the reset and must always be 0.
        for (record, _) in result.distribution.iter() {
            assert!(!record[1]);
        }
    }

    #[test]
    fn empirical_distribution_converges_to_uniform() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0).h(1).measure(0, 0).measure(1, 1);
        let result = sample_distribution(
            &qc,
            &ShotConfig {
                shots: 8000,
                seed: 17,
            },
        )
        .unwrap();
        for index in 0..4 {
            let p = result.distribution.probability_of_index(index);
            assert!(
                (p - 0.25).abs() < 0.05,
                "outcome {index} has probability {p}"
            );
        }
        assert!((result.distribution.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shots_to_reach_tolerance_reports_budget_exhaustion() {
        let mut qc = QuantumCircuit::new(1, 1);
        qc.h(0).measure(0, 0);
        let mut exact = OutcomeDistribution::new(1);
        exact.add(vec![false], 0.5);
        exact.add(vec![true], 0.5);
        // A loose tolerance is reached quickly …
        let ok = shots_to_reach_tolerance(&qc, &exact, 0.2, 1 << 12, 23);
        assert!(ok.is_ok());
        // … an absurdly tight one exhausts the budget.
        let err = shots_to_reach_tolerance(&qc, &exact, 1e-9, 256, 23);
        assert_eq!(err, Err(256));
    }
}
