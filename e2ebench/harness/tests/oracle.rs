//! Cross-checks the generator's known answers at ≤ 6 qubits against dense
//! oracles that share no code with the program's transform or checkers.
//!
//! * Functional question: this file's own deferred-measurement
//!   reconstruction (every reset opens a fresh wire, every classical
//!   condition becomes a control on the wire its bit was measured from)
//!   into a dense unitary, compared up to global phase under the wire
//!   relabelling the classical bits define.
//! * Distribution question: the `density` crate's ensemble simulator.

use bench::Family;
use circuit::{OpKind, QuantumCircuit, StandardGate};
use density::EnsembleSimulator;
use e2ebench_harness::{mutate, table1_cases, Expected, MutantKind, Rng};

#[derive(Clone, Copy, Debug, PartialEq)]
struct C(f64, f64);

impl C {
    fn mul(self, o: C) -> C {
        C(self.0 * o.0 - self.1 * o.1, self.0 * o.1 + self.1 * o.0)
    }
    fn add(self, o: C) -> C {
        C(self.0 + o.0, self.1 + o.1)
    }
    fn conj(self) -> C {
        C(self.0, -self.1)
    }
    fn norm(self) -> f64 {
        self.0.hypot(self.1)
    }
    fn expi(theta: f64) -> C {
        C(theta.cos(), theta.sin())
    }
}

const ZERO: C = C(0.0, 0.0);
const ONE: C = C(1.0, 0.0);

fn gate_matrix(gate: StandardGate) -> [[C; 2]; 2] {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let u = |theta: f64, phi: f64, lambda: f64| {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        [
            [C(c, 0.0), C::expi(lambda).mul(C(-s, 0.0))],
            [
                C::expi(phi).mul(C(s, 0.0)),
                C::expi(phi + lambda).mul(C(c, 0.0)),
            ],
        ]
    };
    match gate {
        StandardGate::I => [[ONE, ZERO], [ZERO, ONE]],
        StandardGate::H => [[C(h, 0.0), C(h, 0.0)], [C(h, 0.0), C(-h, 0.0)]],
        StandardGate::X => [[ZERO, ONE], [ONE, ZERO]],
        StandardGate::Y => [[ZERO, C(0.0, -1.0)], [C(0.0, 1.0), ZERO]],
        StandardGate::Z => [[ONE, ZERO], [ZERO, C(-1.0, 0.0)]],
        StandardGate::S => [[ONE, ZERO], [ZERO, C(0.0, 1.0)]],
        StandardGate::Sdg => [[ONE, ZERO], [ZERO, C(0.0, -1.0)]],
        StandardGate::T => [[ONE, ZERO], [ZERO, C::expi(std::f64::consts::FRAC_PI_4)]],
        StandardGate::Tdg => [[ONE, ZERO], [ZERO, C::expi(-std::f64::consts::FRAC_PI_4)]],
        StandardGate::Sx => [[C(0.5, 0.5), C(0.5, -0.5)], [C(0.5, -0.5), C(0.5, 0.5)]],
        StandardGate::Sxdg => [[C(0.5, -0.5), C(0.5, 0.5)], [C(0.5, 0.5), C(0.5, -0.5)]],
        StandardGate::Phase(theta) => [[ONE, ZERO], [ZERO, C::expi(theta)]],
        StandardGate::Rx(theta) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            [[C(c, 0.0), C(0.0, -s)], [C(0.0, -s), C(c, 0.0)]]
        }
        StandardGate::Ry(theta) => {
            let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
            [[C(c, 0.0), C(-s, 0.0)], [C(s, 0.0), C(c, 0.0)]]
        }
        StandardGate::Rz(theta) => [[C::expi(-theta / 2.0), ZERO], [ZERO, C::expi(theta / 2.0)]],
        StandardGate::U(theta, phi, lambda) => u(theta, phi, lambda),
    }
}

/// One gate on wires: target, (control wire, fires on 1) pairs, matrix.
type WireGate = (usize, Vec<(usize, bool)>, [[C; 2]; 2]);

/// The deferred-measurement form of a circuit: wire count, gates on
/// wires, and the wire each classical bit is read from. `None` when a
/// measured qubit is used again without a reset (not deferrable).
struct Deferred {
    wires: usize,
    gates: Vec<WireGate>,
    bit_wire: Vec<Option<usize>>,
}

fn defer(circuit: &QuantumCircuit) -> Option<Deferred> {
    let mut wire_of: Vec<usize> = (0..circuit.num_qubits()).collect();
    let mut measured = vec![false; circuit.num_qubits()];
    let mut wires = circuit.num_qubits();
    let mut bit_wire = vec![None; circuit.num_bits()];
    let mut gates = Vec::new();
    for op in circuit.ops() {
        match &op.kind {
            OpKind::Barrier => {}
            OpKind::Measure { qubit, bit } => {
                bit_wire[*bit] = Some(wire_of[*qubit]);
                measured[*qubit] = true;
            }
            OpKind::Reset { qubit } => {
                wire_of[*qubit] = wires;
                wires += 1;
                measured[*qubit] = false;
            }
            OpKind::Unitary {
                gate,
                target,
                controls,
            } => {
                if measured[*target] || controls.iter().any(|c| measured[c.qubit]) {
                    return None;
                }
                let mut wire_controls: Vec<(usize, bool)> = controls
                    .iter()
                    .map(|c| (wire_of[c.qubit], c.positive))
                    .collect();
                if let Some(condition) = op.condition {
                    wire_controls.push((bit_wire[condition.bit]?, condition.value));
                }
                gates.push((wire_of[*target], wire_controls, gate_matrix(*gate)));
            }
        }
    }
    Some(Deferred {
        wires,
        gates,
        bit_wire,
    })
}

/// Relabels a deferred circuit's wires onto `reference`'s: measured wires
/// by classical bit, the remaining wires in index order.
fn relabel(circuit: &Deferred, reference: &Deferred) -> Option<Vec<usize>> {
    if circuit.wires != reference.wires {
        return None;
    }
    let mut map = vec![usize::MAX; circuit.wires];
    let mut taken = vec![false; reference.wires];
    for (mine, theirs) in circuit.bit_wire.iter().zip(&reference.bit_wire) {
        if let (Some(mine), Some(theirs)) = (mine, theirs) {
            map[*mine] = *theirs;
            taken[*theirs] = true;
        }
    }
    let mut free = (0..reference.wires).filter(|&w| !taken[w]);
    for slot in map.iter_mut().filter(|m| **m == usize::MAX) {
        *slot = free.next()?;
    }
    Some(map)
}

fn unitary(circuit: &Deferred, map: &[usize]) -> Vec<Vec<C>> {
    let dim = 1usize << circuit.wires;
    (0..dim)
        .map(|column| {
            let mut state = vec![ZERO; dim];
            state[column] = ONE;
            for (target, controls, m) in &circuit.gates {
                let t = map[*target];
                for index in 0..dim {
                    if index >> t & 1 == 1 {
                        continue;
                    }
                    let fires = controls
                        .iter()
                        .all(|&(w, on)| (index >> map[w] & 1 == 1) == on);
                    if !fires {
                        continue;
                    }
                    let partner = index | 1 << t;
                    let (a, b) = (state[index], state[partner]);
                    state[index] = m[0][0].mul(a).add(m[0][1].mul(b));
                    state[partner] = m[1][0].mul(a).add(m[1][1].mul(b));
                }
            }
            state
        })
        .collect()
}

/// The functional answer: equal up to global phase after relabelling.
/// `None` when the circuit is out of the deferred form's reach.
fn functional(reference: &QuantumCircuit, candidate: &QuantumCircuit) -> Option<Expected> {
    let reference = defer(reference)?;
    let candidate = defer(candidate)?;
    let map = relabel(&candidate, &reference)?;
    let identity: Vec<usize> = (0..reference.wires).collect();
    let u = unitary(&reference, &identity);
    let v = unitary(&candidate, &map);
    let mut phase = None;
    for (col_u, col_v) in u.iter().zip(&v) {
        for (&a, &b) in col_u.iter().zip(col_v) {
            if phase.is_none() && a.norm() > 1e-6 {
                if b.norm() < 1e-9 {
                    return Some(Expected::NotEquivalent);
                }
                let p = b.mul(a.conj());
                phase = Some(C(p.0 / a.norm().powi(2), p.1 / a.norm().powi(2)));
            }
            let expected = phase.map_or(ZERO, |p| p.mul(a));
            if (expected.0 - b.0).hypot(expected.1 - b.1) > 1e-8 {
                return Some(Expected::NotEquivalent);
            }
        }
    }
    Some(Expected::Equivalent)
}

/// The distribution answer for the all-zeros input, from the dense
/// ensemble simulator.
fn distribution(reference: &QuantumCircuit, candidate: &QuantumCircuit) -> Expected {
    let run = |circuit: &QuantumCircuit| {
        let mut simulator = EnsembleSimulator::new(circuit).expect("small circuit");
        simulator.run(circuit).expect("simulates");
        simulator.outcome_distribution()
    };
    if run(reference).total_variation_distance(&run(candidate)) < 1e-9 {
        Expected::Equivalent
    } else {
        Expected::NotEquivalent
    }
}

const SMALL: &[(Family, usize)] = &[
    (Family::BernsteinVazirani, 4),
    (Family::BernsteinVazirani, 6),
    (Family::Qft, 4),
    (Family::Qft, 6),
    (Family::Qpe, 4),
    (Family::Qpe, 6),
];

#[test]
fn table1_pairs_are_equivalent_under_both_questions() {
    for &(family, n) in SMALL {
        let case = &table1_cases(family, n, &[], &mut Rng::new(0))[0];
        assert_eq!(case.expected, Expected::Equivalent);
        assert_eq!(
            functional(&case.left, &case.right),
            Some(Expected::Equivalent),
            "{}",
            case.name
        );
        assert_eq!(
            distribution(&case.left, &case.right),
            Expected::Equivalent,
            "{}",
            case.name
        );
    }
}

#[test]
fn every_mutant_is_functionally_different() {
    let mut checked = 0;
    for seed in 0..12 {
        let mut rng = Rng::new(seed);
        for &(family, n) in SMALL {
            for case in table1_cases(family, n, &MutantKind::ALL, &mut rng)
                .iter()
                .skip(1)
            {
                assert_eq!(case.expected, Expected::NotEquivalent);
                // A moved reset can leave a gate on a measured qubit, out
                // of the deferred form's reach; its outcome distribution
                // then tells the two circuits apart instead.
                let answer = functional(&case.left, &case.right)
                    .unwrap_or_else(|| distribution(&case.left, &case.right));
                assert_eq!(
                    answer,
                    Expected::NotEquivalent,
                    "{} (seed {seed})",
                    case.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 12 * 6 * 3, "only {checked} mutants generated");
}

#[test]
fn z_before_measure_mutants_keep_the_distribution() {
    // The question mismatch the benchmark exposes: a Z right before a
    // measurement changes the reconstructed unitary but not the outcome
    // distribution, so a distribution match cannot prove functional
    // equivalence.
    for &(family, n) in SMALL {
        let instance = bench::build_instance(family, n);
        let mutant = mutate(
            &instance.dynamic_circuit,
            MutantKind::ZBeforeMeasure,
            &mut Rng::new(5),
        )
        .expect("every dynamic circuit measures");
        assert_eq!(
            functional(&instance.static_circuit, &mutant),
            Some(Expected::NotEquivalent)
        );
        assert_eq!(
            distribution(&instance.static_circuit, &mutant),
            Expected::Equivalent
        );
    }
}

#[test]
fn compile_snapshots_are_equivalent_step_by_step() {
    // The benchmark's own corpus generation, at oracle-sized widths.
    let options = bench::corpus::CorpusOptions {
        widths: vec![4, 5, 6],
        ..e2ebench_harness::corpus_options()
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle-corpus");
    let generated = bench::corpus::generate(&dir, &options).expect("compiles");
    let parse = |path: &str| {
        let text = std::fs::read_to_string(dir.join(path)).expect("snapshot written");
        circuit::qasm::from_qasm(&text).expect("snapshot parses")
    };
    for chain in generated.manifest.chain_specs() {
        for step in chain.steps.windows(2) {
            assert_eq!(
                functional(&parse(&step[0].path), &parse(&step[1].path)),
                Some(Expected::Equivalent),
                "{}",
                step[1].path
            );
        }
    }
    std::fs::remove_dir_all(&dir).expect("scratch corpus removed");
}
