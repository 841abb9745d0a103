//! Functional (unitary) equivalence checking of quantum circuits.
//!
//! Two circuits `G` and `G'` over the same register are equivalent exactly
//! when the miter `U · U'†` is the identity (possibly up to a global phase).
//! The miter is built as a decision diagram; the scheduling of gates from `G`
//! and inverted gates from `G'` is governed by the configured
//! [`Strategy`](crate::Strategy). Close to equivalent circuits the
//! proportional schedule keeps the intermediate diagram near the identity and
//! therefore small — the key insight of the underlying QCEC tool.

use crate::equivalence::{Configuration, Equivalence, Strategy};
use circuit::{OpKind, Operation, QuantumCircuit, StandardGate};
use dd::{Budget, DdPackage, LimitExceeded, MEdge};
use sim::{dd_controls, gate_matrix};
use std::time::{Duration, Instant};

/// Error raised when a circuit cannot be checked functionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The circuit contains dynamic primitives; reconstruct it first.
    NonUnitaryCircuit {
        /// Which circuit (`"left"` / `"right"`).
        which: &'static str,
        /// Offending operation.
        operation: String,
    },
    /// The circuits act on different register sizes.
    RegisterMismatch {
        /// Qubits of the left circuit.
        left: usize,
        /// Qubits of the right circuit.
        right: usize,
    },
    /// The check was stopped by its [`Budget`](dd::Budget): cancelled by a
    /// competing portfolio scheme or out of its node budget.
    LimitExceeded(LimitExceeded),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NonUnitaryCircuit { which, operation } => write!(
                f,
                "the {which} circuit contains the non-unitary operation `{operation}`; \
                 apply the unitary reconstruction first"
            ),
            CheckError::RegisterMismatch { left, right } => write!(
                f,
                "register mismatch: left circuit has {left} qubits, right circuit has {right}"
            ),
            CheckError::LimitExceeded(reason) => write!(f, "check stopped early: {reason}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Outcome of a functional equivalence check, with diagnostics.
#[derive(Debug, Clone)]
pub struct FunctionalCheck {
    /// The verdict.
    pub equivalence: Equivalence,
    /// Normalised identity fidelity `|tr(U·U'†)| / 2^n` of the final miter.
    pub identity_fidelity: f64,
    /// Size (node count) of the final miter diagram.
    pub final_diagram_size: usize,
    /// Largest intermediate miter size observed.
    pub peak_diagram_size: usize,
    /// Wall-clock time of the check (the paper's `t_ver`).
    pub duration: Duration,
    /// Memory-system telemetry of the decision-diagram package (compute-table
    /// hit rates, garbage-collection runs, peak live nodes).
    pub memory: dd::MemoryStats,
}

/// Extracts the unitary gate sequence of a circuit, rejecting dynamic
/// primitives.
fn unitary_ops<'a>(
    circuit: &'a QuantumCircuit,
    which: &'static str,
) -> Result<Vec<&'a Operation>, CheckError> {
    let mut ops = Vec::with_capacity(circuit.len());
    for op in circuit.ops() {
        match (&op.kind, op.condition) {
            (OpKind::Barrier, _) | (OpKind::Measure { .. }, None) => {
                // Barriers are no-ops; trailing measurements of reconstructed
                // circuits do not affect the unitary functionality and are
                // skipped.
            }
            (OpKind::Unitary { .. }, None) => ops.push(op),
            _ => {
                return Err(CheckError::NonUnitaryCircuit {
                    which,
                    operation: op.to_string(),
                })
            }
        }
    }
    Ok(ops)
}

fn apply_left(package: &mut DdPackage, miter: MEdge, op: &Operation) -> MEdge {
    let OpKind::Unitary {
        gate,
        target,
        controls,
    } = &op.kind
    else {
        unreachable!("filtered to unitary operations")
    };
    let matrix = gate_matrix(*gate);
    let gate_dd = package.make_gate(&matrix, *target, &dd_controls(controls));
    package.mul_matrices(gate_dd, miter)
}

fn apply_right_inverse(package: &mut DdPackage, miter: MEdge, op: &Operation) -> MEdge {
    let OpKind::Unitary {
        gate,
        target,
        controls,
    } = &op.kind
    else {
        unreachable!("filtered to unitary operations")
    };
    let matrix = gate_matrix(gate.inverse());
    let gate_dd = package.make_gate(&matrix, *target, &dd_controls(controls));
    package.mul_matrices(miter, gate_dd)
}

/// Returns whether `right` is `left` with every wire renamed through
/// `mapping` (`mapping[left_wire] = right_wire`): same gate, mapped target,
/// and mapped controls in order.
fn ops_match(left: &Operation, right: &Operation, mapping: &[usize]) -> bool {
    let (
        OpKind::Unitary {
            gate: lg,
            target: lt,
            controls: lc,
        },
        OpKind::Unitary {
            gate: rg,
            target: rt,
            controls: rc,
        },
    ) = (&left.kind, &right.kind)
    else {
        return false;
    };
    lg == rg
        && mapping[*lt] == *rt
        && lc.len() == rc.len()
        && lc
            .iter()
            .zip(rc.iter())
            .all(|(l, r)| l.positive == r.positive && mapping[l.qubit] == r.qubit)
}

/// Detects the three-CNOT SWAP pattern `cx(a,b); cx(b,a); cx(a,b)` at the
/// head of `ops` (how the router and the layout-restoration emit SWAPs) and
/// returns the swapped wire pair.
fn swap_triplet(ops: &[&Operation]) -> Option<(usize, usize)> {
    let cx = |op: &Operation| -> Option<(usize, usize)> {
        match &op.kind {
            OpKind::Unitary {
                gate: StandardGate::X,
                target,
                controls,
            } if controls.len() == 1 && controls[0].positive => Some((controls[0].qubit, *target)),
            _ => None,
        }
    };
    let (a, b) = cx(ops.first()?)?;
    (cx(ops.get(1)?)? == (b, a) && cx(ops.get(2)?)? == (a, b)).then_some((a, b))
}

/// Checks whether two unitary circuits implement the same functionality.
///
/// Trailing measurements and barriers are ignored; any other non-unitary
/// operation is an error (run the reconstruction of the `transform` crate
/// first).
///
/// # Errors
///
/// [`CheckError::RegisterMismatch`] when the circuits act on different
/// numbers of qubits, [`CheckError::NonUnitaryCircuit`] when a circuit
/// contains resets or classically-controlled operations.
///
/// # Examples
///
/// A CNOT and its H·CZ·H decomposition realise the same GHZ-preparation
/// unitary:
///
/// ```
/// use algorithms::ghz;
/// use circuit::QuantumCircuit;
/// use qcec::{check_functional_equivalence, Configuration};
///
/// let reference = ghz::ghz(3, false);
/// let mut decomposed = QuantumCircuit::new(3, 0);
/// decomposed.h(0);
/// for q in 1..3 {
///     decomposed.h(q).cz(q - 1, q).h(q);
/// }
/// let check = check_functional_equivalence(&reference, &decomposed, &Configuration::default())?;
/// assert!(check.equivalence.considered_equivalent());
/// # Ok::<(), qcec::CheckError>(())
/// ```
pub fn check_functional_equivalence(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
) -> Result<FunctionalCheck, CheckError> {
    check_functional_equivalence_with(left, right, config, &Budget::unlimited())
}

/// Budget-aware variant of [`check_functional_equivalence`].
///
/// The miter construction observes `budget` cooperatively: when the budget's
/// cancel token fires or its node limit trips, the check stops within a few
/// hundred decision-diagram node allocations and returns
/// [`CheckError::LimitExceeded`]. This is what lets the portfolio engine
/// cancel losing schemes instead of letting them burn a core to completion.
///
/// # Errors
///
/// Same as [`check_functional_equivalence`], plus
/// [`CheckError::LimitExceeded`].
pub fn check_functional_equivalence_with(
    left: &QuantumCircuit,
    right: &QuantumCircuit,
    config: &Configuration,
    budget: &Budget,
) -> Result<FunctionalCheck, CheckError> {
    if left.num_qubits() != right.num_qubits() {
        return Err(CheckError::RegisterMismatch {
            left: left.num_qubits(),
            right: right.num_qubits(),
        });
    }
    let start = Instant::now();
    let n = left.num_qubits();
    let left_ops = unitary_ops(left, "left")?;
    let right_ops = unitary_ops(right, "right")?;

    let mut package = DdPackage::with_config(n, budget.clone(), config.memory);
    let mut miter = package.identity();
    let mut peak = package.matrix_size(miter);

    match config.strategy {
        Strategy::Reference => {
            for op in &left_ops {
                miter = apply_left(&mut package, miter, op);
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                peak = peak.max(package.matrix_size(miter));
            }
            for op in &right_ops {
                miter = apply_right_inverse(&mut package, miter, op);
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                peak = peak.max(package.matrix_size(miter));
            }
        }
        Strategy::OneToOne | Strategy::Proportional => {
            // Interleave gates of the left circuit with inverted gates of the
            // right circuit. For the proportional schedule the side that lags
            // behind in *relative* progress goes next, so that both circuits
            // are exhausted at (roughly) the same time and the intermediate
            // miter stays close to the identity for near-equivalent circuits.
            let total_left = left_ops.len().max(1);
            let total_right = right_ops.len().max(1);
            let mut li = 0;
            let mut ri = 0;
            let mut steps = 0usize;
            while li < left_ops.len() || ri < right_ops.len() {
                let take_left = if li >= left_ops.len() {
                    false
                } else if ri >= right_ops.len() {
                    true
                } else {
                    match config.strategy {
                        Strategy::OneToOne => li <= ri,
                        // Compare progress fractions li/L vs ri/R without
                        // floating point: li·R ≤ ri·L.
                        Strategy::Proportional => li * total_right <= ri * total_left,
                        Strategy::Reference | Strategy::Aligned => unreachable!(),
                    }
                };
                if take_left {
                    miter = apply_left(&mut package, miter, left_ops[li]);
                    li += 1;
                } else {
                    miter = apply_right_inverse(&mut package, miter, right_ops[ri]);
                    ri += 1;
                }
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                steps += 1;
                if steps.is_multiple_of(50) {
                    peak = peak.max(package.matrix_size(miter));
                }
            }
        }
        Strategy::Aligned => {
            // Two-pointer diff walk. `mapping[l] = r` is the current wire
            // correspondence: after the right side applies an inserted SWAP,
            // left wires living on the swapped right wires trade places. At
            // every point where the pointers are in sync the partial miter
            // equals the inverse of that wire permutation — a linear-size
            // diagram — so insertion-only pairs (routing, layout
            // restoration) never leave the cheap regime.
            let total_left = left_ops.len().max(1);
            let total_right = right_ops.len().max(1);
            let mut mapping: Vec<usize> = (0..n).collect();
            let mut li = 0;
            let mut ri = 0;
            let mut steps = 0usize;
            while li < left_ops.len() || ri < right_ops.len() {
                let matched = li < left_ops.len()
                    && ri < right_ops.len()
                    && ops_match(left_ops[li], right_ops[ri], &mapping);
                if matched {
                    miter = apply_left(&mut package, miter, left_ops[li]);
                    li += 1;
                    miter = apply_right_inverse(&mut package, miter, right_ops[ri]);
                    ri += 1;
                } else if let Some((a, b)) = swap_triplet(&right_ops[ri..]) {
                    // An inserted SWAP: consume all three CNOTs on the right
                    // side and track the wire exchange.
                    for _ in 0..3 {
                        miter = apply_right_inverse(&mut package, miter, right_ops[ri]);
                        ri += 1;
                    }
                    for wire in &mut mapping {
                        if *wire == a {
                            *wire = b;
                        } else if *wire == b {
                            *wire = a;
                        }
                    }
                } else {
                    // No insertion structure here — take one proportional
                    // step so unrelated pairs still terminate with the same
                    // cost shape as `Proportional`.
                    let take_left = li < left_ops.len()
                        && (ri >= right_ops.len() || li * total_right <= ri * total_left);
                    if take_left {
                        miter = apply_left(&mut package, miter, left_ops[li]);
                        li += 1;
                    } else {
                        miter = apply_right_inverse(&mut package, miter, right_ops[ri]);
                        ri += 1;
                    }
                }
                if let Some(reason) = package.limit_exceeded() {
                    return Err(CheckError::LimitExceeded(reason));
                }
                steps += 1;
                if steps.is_multiple_of(50) {
                    peak = peak.max(package.matrix_size(miter));
                }
            }
        }
    }

    let identity_fidelity = package.identity_fidelity(miter);
    let equivalence = if identity_fidelity >= 1.0 - config.tolerance {
        // Distinguish a genuine identity from one with a global phase by
        // looking at the (complex) trace direction.
        let trace = package.trace(miter);
        let dim = 2f64.powi(n as i32);
        if (trace.re / dim - 1.0).abs() < config.tolerance
            && (trace.im / dim).abs() < config.tolerance
        {
            Equivalence::Equivalent
        } else {
            Equivalence::EquivalentUpToGlobalPhase
        }
    } else {
        Equivalence::NotEquivalent
    };

    Ok(FunctionalCheck {
        equivalence,
        identity_fidelity,
        final_diagram_size: package.matrix_size(miter),
        peak_diagram_size: peak,
        duration: start.elapsed(),
        memory: package.memory_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{ghz, qft, random};

    #[test]
    fn identical_circuits_are_equivalent() {
        let qc = random::random_unitary_circuit(4, 24, 3);
        for strategy in [
            Strategy::Reference,
            Strategy::OneToOne,
            Strategy::Proportional,
        ] {
            let config = Configuration {
                strategy,
                ..Default::default()
            };
            let check = check_functional_equivalence(&qc, &qc, &config).unwrap();
            assert_eq!(check.equivalence, Equivalence::Equivalent, "{strategy:?}");
            assert!((check.identity_fidelity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cnot_decomposition_is_equivalent() {
        let a = ghz::ghz(6, false);
        let mut b = circuit::QuantumCircuit::new(6, 0);
        b.h(0);
        for q in 1..6 {
            b.h(q).cz(q - 1, q).h(q);
        }
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn fixed_input_equivalent_circuits_can_differ_functionally() {
        // The log-depth GHZ preparation produces the same state from |0…0⟩
        // but is a different unitary.
        let a = ghz::ghz(4, false);
        let b = ghz::ghz_log_depth(4, false);
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn detects_non_equivalence() {
        let a = ghz::ghz(4, false);
        let mut b = ghz::ghz(4, false);
        b.z(2);
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
        assert!(check.identity_fidelity < 1.0 - 1e-3);
    }

    #[test]
    fn detects_global_phase_difference() {
        use circuit::QuantumCircuit;
        let theta = 0.9;
        let mut a = QuantumCircuit::new(1, 0);
        a.rz(theta, 0);
        let mut b = QuantumCircuit::new(1, 0);
        b.p(theta, 0);
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::EquivalentUpToGlobalPhase);
    }

    #[test]
    fn circuit_against_its_inverse_composition_is_identity() {
        let qc = random::random_unitary_circuit(5, 40, 9);
        let inv = qc.inverse().unwrap();
        let mut composed = circuit::QuantumCircuit::new(5, 0);
        composed.append(&qc);
        composed.append(&inv);
        let empty = circuit::QuantumCircuit::new(5, 0);
        let check =
            check_functional_equivalence(&composed, &empty, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn trailing_measurements_are_ignored() {
        let with = ghz::ghz(3, true);
        let without = ghz::ghz(3, false);
        let check =
            check_functional_equivalence(&with, &without, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn rejects_dynamic_circuits() {
        let mut dynamic = circuit::QuantumCircuit::new(2, 1);
        dynamic.h(0).measure(0, 0).x_if(1, 0);
        let static_c = ghz::ghz(2, false);
        assert!(matches!(
            check_functional_equivalence(&dynamic, &static_c, &Configuration::default()),
            Err(CheckError::NonUnitaryCircuit { which: "left", .. })
        ));
    }

    #[test]
    fn rejects_register_mismatch() {
        let a = ghz::ghz(3, false);
        let b = ghz::ghz(4, false);
        assert!(matches!(
            check_functional_equivalence(&a, &b, &Configuration::default()),
            Err(CheckError::RegisterMismatch { left: 3, right: 4 })
        ));
    }

    #[test]
    fn qft_against_itself_with_reordered_rotations() {
        // The controlled-phase rotations within one QFT level commute; a
        // reversed ordering must still be equivalent.
        let n = 5;
        let a = qft::qft_static(n, None, false);
        let mut b = circuit::QuantumCircuit::new(n, 0);
        for j in (0..n).rev() {
            b.h(j);
            for k in 0..j {
                let angle = std::f64::consts::PI / (1u64 << (j - k)) as f64;
                b.cp(angle, k, j);
            }
        }
        let check = check_functional_equivalence(&a, &b, &Configuration::default()).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
    }

    #[test]
    fn proportional_strategy_keeps_peak_small_for_identical_circuits() {
        let qc = qft::qft_static(8, None, false);
        let proportional = check_functional_equivalence(
            &qc,
            &qc,
            &Configuration {
                strategy: Strategy::Proportional,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = check_functional_equivalence(
            &qc,
            &qc,
            &Configuration {
                strategy: Strategy::Reference,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(proportional.peak_diagram_size <= reference.peak_diagram_size);
        assert_eq!(proportional.equivalence, Equivalence::Equivalent);
        assert_eq!(reference.equivalence, Equivalence::Equivalent);
    }

    /// Rebuilds `left` as a router would: every gate re-emitted through the
    /// evolving wire mapping, with SWAP triplets inserted at the given gate
    /// indices (swapping adjacent wires `w`/`w+1`).
    fn insert_swaps(
        left: &circuit::QuantumCircuit,
        at: &[(usize, usize)],
    ) -> circuit::QuantumCircuit {
        let n = left.num_qubits();
        let mut mapping: Vec<usize> = (0..n).collect();
        let mut routed = circuit::QuantumCircuit::new(n, left.num_bits());
        for (index, op) in left.ops().iter().enumerate() {
            for &(gate_index, wire) in at {
                if gate_index == index {
                    routed.swap(wire, wire + 1);
                    for w in &mut mapping {
                        if *w == wire {
                            *w = wire + 1;
                        } else if *w == wire + 1 {
                            *w = wire;
                        }
                    }
                }
            }
            let OpKind::Unitary {
                gate,
                target,
                controls,
            } = &op.kind
            else {
                continue;
            };
            let mapped: Vec<circuit::QuantumControl> = controls
                .iter()
                .map(|c| circuit::QuantumControl {
                    qubit: mapping[c.qubit],
                    positive: c.positive,
                })
                .collect();
            routed.controlled_gate(*gate, mapping[*target], mapped);
        }
        // Restore the layout with adjacent SWAPs (as `restore_layout` does),
        // so the routed circuit implements the same unitary.
        let mut occupant: Vec<usize> = (0..n).collect();
        for (logical, &physical) in mapping.iter().enumerate() {
            occupant[physical] = logical;
        }
        let mut sorted = false;
        while !sorted {
            sorted = true;
            for w in 0..n - 1 {
                if occupant[w] > occupant[w + 1] {
                    routed.swap(w, w + 1);
                    occupant.swap(w, w + 1);
                    sorted = false;
                }
            }
        }
        routed
    }

    #[test]
    fn aligned_strategy_tracks_inserted_swaps() {
        // A "routed" variant of a QFT: SWAP triplets inserted mid-circuit,
        // every later gate re-emitted on the permuted wires. The aligned
        // schedule must stay in lockstep (same verdict as proportional, and
        // a peak no worse), because this is exactly the insertion shape it
        // was built for.
        let left = qft::qft_static(6, None, false);
        let routed = insert_swaps(&left, &[(3, 0), (7, 2), (11, 4), (14, 1)]);
        let aligned = check_functional_equivalence(
            &left,
            &routed,
            &Configuration {
                strategy: Strategy::Aligned,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(aligned.equivalence, Equivalence::Equivalent);
        let proportional = check_functional_equivalence(
            &left,
            &routed,
            &Configuration {
                strategy: Strategy::Proportional,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(proportional.equivalence, Equivalence::Equivalent);
        assert!(
            aligned.peak_diagram_size <= proportional.peak_diagram_size,
            "aligned peak {} exceeds proportional peak {}",
            aligned.peak_diagram_size,
            proportional.peak_diagram_size
        );
    }

    #[test]
    fn aligned_strategy_refutes_corrupted_insertion_pairs() {
        let left = qft::qft_static(5, None, false);
        let mut routed = insert_swaps(&left, &[(4, 1), (9, 3)]);
        routed.z(2);
        let check = check_functional_equivalence(
            &left,
            &routed,
            &Configuration {
                strategy: Strategy::Aligned,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(check.equivalence, Equivalence::NotEquivalent);
    }

    #[test]
    fn aligned_strategy_falls_back_gracefully_on_unrelated_pairs() {
        // No insertion structure at all: a CNOT ladder against its H·CZ·H
        // decomposition, and a genuinely different pair. The aligned
        // schedule must degrade to the proportional behaviour, not
        // misjudge.
        let a = ghz::ghz(6, false);
        let mut b = circuit::QuantumCircuit::new(6, 0);
        b.h(0);
        for q in 1..6 {
            b.h(q).cz(q - 1, q).h(q);
        }
        let config = Configuration {
            strategy: Strategy::Aligned,
            ..Default::default()
        };
        let check = check_functional_equivalence(&a, &b, &config).unwrap();
        assert_eq!(check.equivalence, Equivalence::Equivalent);
        let different =
            check_functional_equivalence(&a, &ghz::ghz_log_depth(6, false), &config).unwrap();
        assert_eq!(different.equivalence, Equivalence::NotEquivalent);
    }
}
