//! Input generation for the end-to-end benchmark, with a known answer for
//! every generated pair.
//!
//! Two input sets, both written as plain QASM files so the front-ends under
//! test receive nothing else:
//!
//! * the compilation corpus of `bench::corpus` (BV, QFT and QPE at widths
//!   8, 10 and 12 on a line coupling, optimization level 1): every snapshot
//!   is `Equivalent` to its neighbours by construction, because the
//!   compiler restores the initial layout;
//! * Table-1 pairs of a static measured circuit against its dynamic
//!   realisation (`Equivalent` by construction), plus seeded mutants of the
//!   dynamic side. A mutant inserts, removes or relocates one operator `G`
//!   that is not a global phase, so its reconstructed unitary is
//!   `V·G·W ≠ e^{iφ}·V·W`: the known answer to the functional question is
//!   `NotEquivalent`. A moved reset can leave a gate on a measured qubit,
//!   out of the reconstruction's reach; such a mutant also changes the
//!   outcome distribution (`tests/oracle.rs` checks both at ≤ 6 qubits).
//!
//! The mutant positions come from the workload seed; the kinds applied to
//! each instance, and how many of each, do not, so every seed exercises the
//! same kinds.

use bench::corpus::{generate, CorpusOptions, Coupling, GeneratedCorpus};
use bench::Family;
use circuit::{OpKind, Operation, QuantumCircuit, StandardGate};
use std::path::Path;

pub mod spans;

/// The Table-1 instances of the `dynamic-table1` workload: family, static
/// qubit count, and the mutant kinds the instance gets.
///
/// A QPE mutant other than Z-before-measure corrupts the classically
/// controlled corrections, so every later measurement becomes random: the
/// extraction branches exponentially in the measurements left and the
/// miter is far from the identity. At QPE-17 an early corruption took
/// longer than a whole healthy pass (8 s on a 2-core x86_64 host), and at
/// QPE-25 no scheme refuted any such mutant within 15 s, so those kinds
/// are applied to QPE-13; QPE-17 keeps the cheap Z mutants. QFT mutants
/// stop at QFT-14 because every QFT check extracts a uniform distribution
/// (QFT-17 takes 1.4 s per pair), which would more than double a pass.
pub const TABLE1_SIZES: &[(Family, usize, &[MutantKind])] = &[
    (Family::BernsteinVazirani, 65, &MutantKind::ALL),
    (Family::BernsteinVazirani, 97, &MutantKind::ALL),
    (Family::BernsteinVazirani, 129, &MutantKind::ALL),
    (Family::Qft, 12, &MutantKind::ALL),
    (Family::Qft, 14, &MutantKind::ALL),
    (Family::Qft, 16, &[]),
    (Family::Qft, 17, &[]),
    (Family::Qpe, 13, &MutantKind::ALL),
    (Family::Qpe, 17, &[MutantKind::ZBeforeMeasure]),
    (Family::Qpe, 25, &[]),
    (Family::Qpe, 33, &[]),
    (Family::Qpe, 41, &[]),
];

/// The compilation corpus, drawn on by the `verifyd-mixed` workload.
pub fn corpus_options() -> CorpusOptions {
    CorpusOptions {
        families: vec![Family::BernsteinVazirani, Family::Qft, Family::Qpe],
        widths: vec![8, 10, 12],
        couplings: vec![Coupling::Line],
        opt_levels: vec![1],
        measured: false,
    }
}

/// The input sets a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSets {
    /// The compilation corpus, in `corpus/`.
    pub corpus: bool,
    /// The Table-1 pairs and their mutants, in `table1/`.
    pub table1: bool,
}

/// The input sets of a workload by name; `None` for an unknown workload.
pub fn input_sets(workload: &str) -> Option<InputSets> {
    let (corpus, table1) = match workload {
        "dynamic-table1" => (false, true),
        "verifyd-mixed" => (true, true),
        _ => return None,
    };
    Some(InputSets { corpus, table1 })
}

/// Writes the compilation corpus (QASM snapshots plus `manifest.json`).
///
/// # Errors
///
/// Compilation or I/O failures, as text.
pub fn write_corpus(dir: &Path) -> Result<GeneratedCorpus, String> {
    generate(dir, &corpus_options())
}

/// The answer a correct verifier gives for a pair, independent of the
/// program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The two circuits realise the same unitary (up to global phase).
    Equivalent,
    /// The two circuits realise different unitaries.
    NotEquivalent,
}

impl Expected {
    /// Stable name used in `answers.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Expected::Equivalent => "Equivalent",
            Expected::NotEquivalent => "NotEquivalent",
        }
    }

    /// Whether a verdict matches this answer. A `NoInformation` verdict
    /// never does; `ProbablyEquivalent` only matches `Equivalent`.
    pub fn accepts(self, verdict: qcec::Equivalence) -> bool {
        match self {
            Expected::Equivalent => verdict.considered_equivalent(),
            Expected::NotEquivalent => verdict == qcec::Equivalence::NotEquivalent,
        }
    }
}

/// One way of breaking a dynamic circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantKind {
    /// An X gate inserted right before a measurement.
    XBeforeMeasure,
    /// A Z gate inserted right before a measurement.
    ZBeforeMeasure,
    /// One gate removed.
    DropGate,
    /// The qubit operands of one gate exchanged with another qubit.
    SwapOperands,
    /// A reset moved past the gate that follows it on its qubit.
    MoveReset,
}

impl MutantKind {
    /// Every kind, in generation order.
    pub const ALL: [MutantKind; 5] = [
        MutantKind::XBeforeMeasure,
        MutantKind::ZBeforeMeasure,
        MutantKind::DropGate,
        MutantKind::SwapOperands,
        MutantKind::MoveReset,
    ];

    /// Short name used in pair names.
    pub fn name(self) -> &'static str {
        match self {
            MutantKind::XBeforeMeasure => "xmeas",
            MutantKind::ZBeforeMeasure => "zmeas",
            MutantKind::DropGate => "drop",
            MutantKind::SwapOperands => "swap",
            MutantKind::MoveReset => "mvreset",
        }
    }
}

/// SplitMix64: a small seeded generator, so the benchmark's choices do not
/// depend on any crate's random-number API.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Rotation angles closer than this to a multiple of 2π make a gate too
/// close to a global phase for a numerical checker to be held to the exact
/// answer, so such gates are never mutation targets.
const MIN_ANGLE: f64 = std::f64::consts::PI / 8.0;

fn far_from_zero(angle: f64) -> bool {
    let wrapped = angle.rem_euclid(2.0 * std::f64::consts::PI);
    (MIN_ANGLE..=2.0 * std::f64::consts::PI - MIN_ANGLE).contains(&wrapped)
}

/// Whether `gate` differs from every global phase by a margin (see
/// [`MIN_ANGLE`]).
pub fn far_from_phase(gate: StandardGate) -> bool {
    match gate {
        StandardGate::I => false,
        StandardGate::Phase(a)
        | StandardGate::Rx(a)
        | StandardGate::Ry(a)
        | StandardGate::Rz(a) => far_from_zero(a),
        StandardGate::U(theta, phi, lambda) => far_from_zero(theta) || far_from_zero(phi + lambda),
        _ => true,
    }
}

fn unitary_parts(op: &Operation) -> Option<(StandardGate, usize, &[circuit::QuantumControl])> {
    match &op.kind {
        OpKind::Unitary {
            gate,
            target,
            controls,
        } => Some((*gate, *target, controls)),
        _ => None,
    }
}

fn rebuild(circuit: &QuantumCircuit, ops: Vec<Operation>, suffix: &str) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(
        circuit.num_qubits(),
        circuit.num_bits(),
        format!("{}_{suffix}", circuit.name()),
    );
    for op in ops {
        out.push(op);
    }
    out
}

/// Positions in `circuit` where a mutation of `kind` applies: operation
/// indices, or `(reset, next gate)` index pairs for [`MutantKind::MoveReset`]
/// encoded as `reset * ops + next`.
pub fn candidates(circuit: &QuantumCircuit, kind: MutantKind) -> Vec<usize> {
    let ops = circuit.ops();
    match kind {
        MutantKind::XBeforeMeasure | MutantKind::ZBeforeMeasure => (0..ops.len())
            .filter(|&i| matches!(ops[i].kind, OpKind::Measure { .. }))
            .collect(),
        MutantKind::DropGate => (0..ops.len())
            .filter(|&i| unitary_parts(&ops[i]).is_some_and(|(g, _, _)| far_from_phase(g)))
            .collect(),
        // A single-qubit gate moves to another qubit; a controlled gate
        // exchanges control and target, which changes it only when the
        // base gate is not diagonal (CZ and CP are symmetric).
        MutantKind::SwapOperands if circuit.num_qubits() >= 2 => (0..ops.len())
            .filter(|&i| {
                unitary_parts(&ops[i]).is_some_and(|(g, _, controls)| {
                    far_from_phase(g)
                        && (controls.is_empty()
                            || (controls.len() == 1 && controls[0].positive && !g.is_diagonal()))
                })
            })
            .collect(),
        MutantKind::SwapOperands => Vec::new(),
        // The gate crossing the reset must be an unconditioned,
        // uncontrolled non-phase gate on the reset qubit, so it moves from
        // the fresh wire to the retired one.
        MutantKind::MoveReset => (0..ops.len())
            .filter_map(|i| {
                let OpKind::Reset { qubit } = ops[i].kind else {
                    return None;
                };
                let next = (i + 1..ops.len()).find(|&j| ops[j].qubits().contains(&qubit))?;
                let (gate, target, controls) = unitary_parts(&ops[next])?;
                (target == qubit
                    && controls.is_empty()
                    && ops[next].condition.is_none()
                    && far_from_phase(gate))
                .then_some(i * ops.len() + next)
            })
            .collect(),
    }
}

/// Applies the mutation of `kind` at `position` (one of
/// [`candidates`]); `rng` picks the destination qubit of a moved gate.
pub fn apply(
    circuit: &QuantumCircuit,
    kind: MutantKind,
    position: usize,
    rng: &mut Rng,
) -> QuantumCircuit {
    let ops = circuit.ops();
    let mut out: Vec<Operation> = ops.to_vec();
    match kind {
        MutantKind::XBeforeMeasure | MutantKind::ZBeforeMeasure => {
            let OpKind::Measure { qubit, .. } = ops[position].kind else {
                panic!("position {position} is not a measurement")
            };
            let gate = if kind == MutantKind::XBeforeMeasure {
                StandardGate::X
            } else {
                StandardGate::Z
            };
            out.insert(position, Operation::unitary(gate, qubit, Vec::new()));
        }
        MutantKind::DropGate => {
            out.remove(position);
        }
        MutantKind::SwapOperands => {
            let (gate, target, controls) =
                unitary_parts(&ops[position]).expect("position is a gate");
            let (new_target, new_controls) = if controls.is_empty() {
                let n = circuit.num_qubits();
                ((target + 1 + rng.below(n - 1)) % n, Vec::new())
            } else {
                (
                    controls[0].qubit,
                    vec![circuit::QuantumControl::pos(target)],
                )
            };
            out[position] = Operation {
                kind: OpKind::Unitary {
                    gate,
                    target: new_target,
                    controls: new_controls,
                },
                condition: ops[position].condition,
            };
        }
        MutantKind::MoveReset => {
            let (reset, next) = (position / ops.len(), position % ops.len());
            let moved = out.remove(reset);
            out.insert(next, moved);
        }
    }
    rebuild(circuit, out, kind.name())
}

/// One mutation of `kind` at a position drawn from `rng`, or `None` when
/// the circuit offers no position for the kind.
pub fn mutate(circuit: &QuantumCircuit, kind: MutantKind, rng: &mut Rng) -> Option<QuantumCircuit> {
    let positions = candidates(circuit, kind);
    if positions.is_empty() {
        return None;
    }
    let position = positions[rng.below(positions.len())];
    Some(apply(circuit, kind, position, rng))
}

/// Up to `k` mutations of `kind`, one from each of `k` equal strata of the
/// candidate positions (drawn within each stratum on its own), so every
/// seed covers early, middle and late positions alike and no single draw
/// moves all of them.
pub fn stratified(
    circuit: &QuantumCircuit,
    kind: MutantKind,
    k: usize,
    rng: &mut Rng,
) -> Vec<QuantumCircuit> {
    let positions = candidates(circuit, kind);
    let count = k.min(positions.len());
    if count == 0 {
        return Vec::new();
    }
    (0..count)
        .map(|j| {
            let offset = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let at = ((j as f64 + offset) * positions.len() as f64 / count as f64) as usize;
            apply(circuit, kind, positions[at.min(positions.len() - 1)], rng)
        })
        .collect()
}

/// Mutants per kind and instance in the `dynamic-table1` workload.
pub const MUTANTS_PER_KIND: usize = 3;

/// One generated circuit pair with its known answer.
#[derive(Debug, Clone)]
pub struct Case {
    /// Pair name (also the file stem).
    pub name: String,
    /// Reference side: the static, measured circuit.
    pub left: QuantumCircuit,
    /// Candidate side: the dynamic realisation or a mutant of it.
    pub right: QuantumCircuit,
    /// The known answer.
    pub expected: Expected,
}

/// The Table-1 pair of `family` at `n` qubits plus [`MUTANTS_PER_KIND`]
/// stratified mutants of each of `kinds` that applies, positions drawn from
/// `rng`.
pub fn table1_cases(family: Family, n: usize, kinds: &[MutantKind], rng: &mut Rng) -> Vec<Case> {
    let instance = bench::build_instance(family, n);
    let base = format!("{}{n}", family.name());
    let mut cases = vec![Case {
        name: base.clone(),
        left: instance.static_circuit.clone(),
        right: instance.dynamic_circuit.clone(),
        expected: Expected::Equivalent,
    }];
    for &kind in kinds {
        let variants = stratified(&instance.dynamic_circuit, kind, MUTANTS_PER_KIND, rng);
        for (index, mutant) in variants.into_iter().enumerate() {
            cases.push(Case {
                name: format!("{base}-mut-{}{index}", kind.name()),
                left: instance.static_circuit.clone(),
                right: mutant,
                expected: Expected::NotEquivalent,
            });
        }
    }
    cases
}

/// Every `dynamic-table1` pair for `seed`.
pub fn table1_workload(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed);
    TABLE1_SIZES
        .iter()
        .flat_map(|&(family, n, kinds)| table1_cases(family, n, kinds, &mut rng))
        .collect()
}

/// Writes `cases` as `NAME.left.qasm` / `NAME.right.qasm` pairs.
///
/// # Errors
///
/// I/O failures, as text.
pub fn write_cases(dir: &Path, cases: &[Case]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for case in cases {
        for (side, circuit) in [("left", &case.left), ("right", &case.right)] {
            let path = dir.join(format!("{}.{side}.qasm", case.name));
            std::fs::write(&path, circuit::qasm::to_qasm(circuit))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}
