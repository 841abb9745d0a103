//! Differential tests of the extraction's trailing-measurement read.
//!
//! Once only measurements and barriers remain, the extraction reads the
//! outcomes off the state diagram instead of branching on them. These tests
//! check that read against two independent results on random circuits of at
//! most six qubits: the all-branching extraction of the same circuit with a
//! trailing `reset` appended (which keeps every measurement on the branching
//! path), and the dense `EnsembleSimulator`.

use algorithms::random;
use circuit::QuantumCircuit;
use density::EnsembleSimulator;
use proptest::prelude::*;
use sim::{extract_distribution, ExtractionConfig, OutcomeDistribution, StateVectorSimulator};

const TOLERANCE: f64 = 1e-9;

/// A random circuit: a dynamic prefix (mid-circuit measurements, resets,
/// classically-controlled gates), an entangling unitary layer, then the
/// trailing measurements `(qubit, bit)` taken modulo the register sizes.
/// Qubits may be left unmeasured above and below measured ones, measured
/// into several bits, and a trailing measurement may overwrite a bit the
/// prefix wrote.
fn circuit(
    n_qubits: usize,
    n_bits: usize,
    seed: u64,
    dynamic_len: usize,
    trailing: &[(usize, usize)],
) -> QuantumCircuit {
    let mut qc = random::random_dynamic_circuit(n_qubits, n_bits, dynamic_len, seed);
    qc.append(&random::random_unitary_circuit(
        n_qubits,
        3 * n_qubits,
        seed ^ 0x5eed,
    ));
    for &(qubit, bit) in trailing {
        qc.measure(qubit % n_qubits, bit % n_bits);
    }
    qc
}

fn ensemble_distribution(qc: &QuantumCircuit) -> OutcomeDistribution {
    let mut ensemble = EnsembleSimulator::new(qc).expect("small register");
    ensemble.run(qc).expect("ensemble simulation");
    ensemble.outcome_distribution()
}

/// Extracts `qc` as is (trailing measurements read off the diagram) and
/// checks the result against the extraction with a trailing reset (every
/// measurement branched) and against the ensemble.
fn check_against_branching_and_ensemble(qc: &QuantumCircuit) -> Result<(), String> {
    let config = ExtractionConfig::default();
    let read = extract_distribution(qc, &config).map_err(|e| e.to_string())?;
    let mut branching_circuit = qc.clone();
    branching_circuit.reset(0);
    let branching = extract_distribution(&branching_circuit, &config).map_err(|e| e.to_string())?;
    let ensemble = ensemble_distribution(qc);
    let tvd_branching = read
        .distribution
        .total_variation_distance(&branching.distribution);
    let tvd_ensemble = read.distribution.total_variation_distance(&ensemble);
    if tvd_branching > TOLERANCE || tvd_ensemble > TOLERANCE {
        return Err(format!(
            "read vs branching {tvd_branching:e}, read vs ensemble {tvd_ensemble:e}\n{qc}"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dynamic circuits ending in measurements: the read matches the
    /// all-branching extraction and the ensemble.
    #[test]
    fn trailing_read_matches_branching_and_ensemble(
        seed in 0u64..100_000,
        n_qubits in 1usize..7,
        n_bits in 1usize..5,
        dynamic_len in 0usize..16,
        trailing in proptest::collection::vec((0usize..6, 0usize..4), 0..6),
    ) {
        let qc = circuit(n_qubits, n_bits, seed, dynamic_len, &trailing);
        let checked = check_against_branching_and_ensemble(&qc);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Static circuits with trailing measurements: the extraction never
    /// branches, and the state-vector simulator's distribution (the same
    /// read) matches the ensemble too.
    #[test]
    fn static_read_matches_statevector_and_ensemble(
        seed in 0u64..100_000,
        n_qubits in 1usize..7,
        n_bits in 1usize..5,
        trailing in proptest::collection::vec((0usize..6, 0usize..4), 1..6),
    ) {
        let qc = circuit(n_qubits, n_bits, seed, 0, &trailing);
        let checked = check_against_branching_and_ensemble(&qc);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        let mut simulator = StateVectorSimulator::new(n_qubits);
        simulator.run(&qc).expect("static circuit");
        let simulated = simulator.outcome_distribution();
        let ensemble = ensemble_distribution(&qc);
        prop_assert!(simulated.approx_eq(&ensemble, TOLERANCE));
    }
}

#[test]
fn covers_every_trailing_measurement_shape() {
    // 5 qubits: qubit 4 (top) and qubit 0 (bottom) stay unmeasured, qubit 2
    // is measured into two bits, and bit 0 — written mid-circuit by qubit
    // 3 — is overwritten by the trailing measurement of qubit 1. Bit 3 is
    // only ever written mid-circuit and keeps that value.
    let mut qc = QuantumCircuit::new(5, 4);
    qc.h(3).measure(3, 0).measure(3, 3).reset(3);
    qc.append(&random::random_unitary_circuit(5, 30, 7));
    qc.x_if(1, 0);
    qc.measure(1, 0).measure(2, 1).measure(2, 2);
    let checked = check_against_branching_and_ensemble(&qc);
    assert!(checked.is_ok(), "{}", checked.unwrap_err());
    let read = extract_distribution(&qc, &ExtractionConfig::default()).unwrap();
    for (outcome, _) in read.distribution.iter() {
        assert_eq!(outcome[1], outcome[2], "one qubit measured into two bits");
    }
}
