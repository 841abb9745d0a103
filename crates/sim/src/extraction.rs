//! Extraction of the complete measurement-outcome distribution of a dynamic
//! circuit by branching classical simulation (Section 5 of the paper).
//!
//! Every measurement that is followed by a gate or a reset is a *branching
//! point*: the probabilities of the measured qubit are check-pointed and the
//! simulation forks into the |0⟩- and |1⟩-successor. Resets likewise branch
//! (the two outcomes are merged again, since a reset discards its outcome)
//! and classically-controlled operations are applied or skipped according to
//! the branch's classical bits. The probability of a bit string is the
//! product of the check-pointed probabilities along its path. Branches whose
//! probability falls below a configurable threshold are pruned, so sparse
//! output distributions require far fewer than the worst-case `2^m` leaf
//! simulations.
//!
//! Once only measurements and barriers remain, the walk stops branching: it
//! reads every outcome of the remaining measured bits off the current state
//! diagram in one pass (the routine [`crate::StateVectorSimulator`] uses for
//! its trailing measurements) and scales it by the branch probability. The
//! last writer of a bit wins, and bits the trailing measurements do not
//! write keep the value the branch gave them. A static circuit with trailing
//! measurements therefore never branches at all, and a dynamic circuit whose
//! last operation is a measurement reads its final level instead of
//! collapsing it. Every recorded outcome counts as one leaf.

use crate::distribution::OutcomeDistribution;
use crate::error::SimError;
use crate::gate_map;
use crate::outcomes::{read_outcomes, ReadPlan};
use circuit::{OpKind, Operation, QuantumCircuit};
use dd::{gates, Budget, Control, DdPackage, GateMatrix, LimitExceeded, VEdge};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Outcomes read off a diagram between two budget polls.
const POLL_EVERY: usize = 4096;

/// Configuration of the extraction scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractionConfig {
    /// Branches whose accumulated probability falls below this threshold are
    /// pruned. The paper prunes exactly-zero branches; the small non-zero
    /// default additionally guards against floating-point dust.
    pub prune_threshold: f64,
    /// Decision-diagram memory sizing for the extraction walker's package
    /// (compute-table bounds and the automatic garbage-collection
    /// threshold). The portfolio scheduler overrides the GC threshold per
    /// scheme from recorded peak-node telemetry.
    pub memory: dd::MemoryConfig,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            prune_threshold: 1e-12,
            memory: dd::MemoryConfig::default(),
        }
    }
}

/// Result of the extraction scheme.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// The complete distribution over the circuit's classical bits.
    pub distribution: OutcomeDistribution,
    /// Number of leaves: one per outcome recorded at the end of a branch.
    /// A branch whose trailing measurements are read off the state diagram
    /// records one leaf per outcome of those measurements, so a measured
    /// QFT-n reports `2^n` leaves whether it branches or not.
    pub leaves: usize,
    /// Number of measurements and resets in the circuit, whether the walk
    /// branched on them or read them off the state diagram.
    pub branch_points: usize,
    /// Wall-clock time of the extraction (the paper's `t_extract`).
    pub duration: Duration,
    /// Decision-diagram memory telemetry (aggregated over all worker
    /// packages for the parallel variant).
    pub memory: dd::MemoryStats,
}

/// What an extraction derives from the circuit once, before any walk.
struct Plan {
    /// The gate matrix and decision-diagram controls of every unitary
    /// operation (`None` for the other kinds), indexed like the operations.
    gates: Vec<Option<(GateMatrix, Vec<Control>)>>,
    /// Operation index from which the walk reads outcomes off the state
    /// instead of branching: after it come only measurements and barriers,
    /// and no forced branching point.
    read_from: usize,
    /// The measurements from `read_from` on.
    trailing: ReadPlan,
}

impl Plan {
    /// Plans an extraction whose first `forced` branching points are
    /// forced (and therefore branched on, never read).
    fn new(circuit: &QuantumCircuit, forced: usize) -> Self {
        let ops = circuit.ops();
        let gates = ops
            .iter()
            .map(|op| match &op.kind {
                OpKind::Unitary { gate, controls, .. } => {
                    Some((gate_map::gate_matrix(*gate), gate_map::controls(controls)))
                }
                _ => None,
            })
            .collect();
        let tail_start = ops
            .iter()
            .rposition(|op| !matches!(op.kind, OpKind::Measure { .. } | OpKind::Barrier))
            .map_or(0, |idx| idx + 1);
        let forced_end = forced
            .checked_sub(1)
            .and_then(|last| branch_indices(ops).nth(last))
            .map_or(0, |idx| idx + 1);
        let read_from = tail_start.max(forced_end);
        let trailing = ReadPlan::new(
            circuit.num_qubits(),
            circuit.num_bits(),
            ops[read_from..].iter().filter_map(|op| match op.kind {
                OpKind::Measure { qubit, bit } => Some((qubit, bit)),
                _ => None,
            }),
        );
        Plan {
            gates,
            read_from,
            trailing,
        }
    }
}

/// Indices of the measurements and resets among `ops`.
fn branch_indices(ops: &[Operation]) -> impl Iterator<Item = usize> + '_ {
    ops.iter()
        .enumerate()
        .filter(|(_, op)| matches!(op.kind, OpKind::Measure { .. } | OpKind::Reset { .. }))
        .map(|(idx, _)| idx)
}

/// State shared by the workers of one extraction.
#[derive(Default)]
struct Progress {
    /// Leaves recorded so far, over every worker.
    leaves: AtomicUsize,
    /// Set when a worker failed: the others stop at their next poll.
    stop: AtomicBool,
}

/// What every walk of one extraction observes besides its package: the
/// budget (polled while reading outcomes, which allocates no nodes), the
/// leaf limit and the other workers.
struct Guard<'a> {
    budget: Budget,
    max_leaves: Option<usize>,
    progress: &'a Progress,
}

impl Guard<'_> {
    /// Fails when the budget was cancelled or its deadline passed, or
    /// another worker failed.
    fn poll(&self) -> Result<(), SimError> {
        if self.budget.is_cancelled() || self.progress.stop.load(Ordering::Acquire) {
            Err(SimError::Interrupted(LimitExceeded::Cancelled))
        } else if self.budget.deadline_exceeded() {
            Err(SimError::Interrupted(LimitExceeded::Deadline))
        } else {
            Ok(())
        }
    }

    /// Fails when `pending` more leaves would exceed the leaf limit.
    fn check_leaves(&self, pending: usize) -> Result<(), SimError> {
        match self.max_leaves {
            Some(limit) if self.progress.leaves.load(Ordering::Relaxed) + pending > limit => {
                Err(SimError::BranchLimitExceeded { limit })
            }
            _ => Ok(()),
        }
    }

    /// Counts `recorded` leaves, failing when the total over every worker
    /// exceeds the leaf limit.
    fn record_leaves(&self, recorded: usize) -> Result<(), SimError> {
        let total = self.progress.leaves.fetch_add(recorded, Ordering::Relaxed) + recorded;
        match self.max_leaves {
            Some(limit) if total > limit => Err(SimError::BranchLimitExceeded { limit }),
            _ => Ok(()),
        }
    }
}

struct Extractor<'a> {
    package: DdPackage,
    ops: &'a [Operation],
    plan: &'a Plan,
    /// Outcomes forced at the first `forced.len()` branching points (the
    /// parallel variant's sub-tree of this worker; empty otherwise).
    forced: &'a [bool],
    prune: f64,
    guard: Guard<'a>,
    distribution: OutcomeDistribution,
}

impl Extractor<'_> {
    /// Fails when the package hit a limit or the guard's poll fails.
    fn check(&self) -> Result<(), SimError> {
        match self.package.limit_exceeded() {
            Some(reason) => Err(SimError::Interrupted(reason)),
            None => self.guard.poll(),
        }
    }

    // Every frame of the branch walk protects the state it holds, so the
    // package's automatic garbage collection (triggered inside gate
    // applications deeper in the recursion) never reclaims a sibling
    // branch's state. Error paths skip the unprotect — the whole extraction
    // (and its package) is abandoned on error, so leaked protections are
    // irrelevant.
    fn explore(
        &mut self,
        start: usize,
        state: VEdge,
        bits: &mut Vec<bool>,
        probability: f64,
        branch: usize,
    ) -> Result<(), SimError> {
        let mut state = state;
        self.package.protect_vector(state);
        for idx in start..self.plan.read_from {
            self.check()?;
            let op = &self.ops[idx];
            let (qubit, record) = match op.kind {
                OpKind::Barrier => continue,
                OpKind::Unitary { target, .. } => {
                    let apply = op.condition.is_none_or(|cond| bits[cond.bit] == cond.value);
                    if apply {
                        let (matrix, controls) =
                            self.plan.gates[idx].as_ref().expect("resolved unitary");
                        let next = self.package.apply_gate(state, matrix, target, controls);
                        self.package.unprotect_vector(state);
                        self.package.protect_vector(next);
                        state = next;
                    }
                    continue;
                }
                OpKind::Measure { qubit, bit } => (qubit, Some(bit)),
                OpKind::Reset { qubit } => (qubit, None),
            };
            let (p0, p1) = self.package.probabilities(state, qubit);
            let forced = self.forced.get(branch).copied();
            // The classical bit may have been written before (a later
            // measurement overwriting an earlier one); restore the previous
            // value after exploring both branches so sibling branches of
            // *outer* branching points see it unchanged.
            let previous = record.map(|bit| bits[bit]);
            for (value, p) in [(false, p0), (true, p1)] {
                let branch_probability = probability * p;
                if forced.is_some_and(|f| f != value) || branch_probability < self.prune {
                    continue;
                }
                let collapsed = self.package.project(state, qubit, value, Some(p));
                obs::metrics::incr(obs::metrics::SIM_EXTRACT_COLLAPSES);
                let next = match record {
                    Some(bit) => {
                        bits[bit] = value;
                        collapsed
                    }
                    // A reset discards the outcome and re-initialises the
                    // qubit to |0⟩: flip it back when the outcome was |1⟩.
                    None if value => self.package.apply_gate(collapsed, &gates::x(), qubit, &[]),
                    None => collapsed,
                };
                self.explore(idx + 1, next, bits, branch_probability, branch + 1)?;
            }
            if let (Some(bit), Some(previous)) = (record, previous) {
                bits[bit] = previous;
            }
            self.package.unprotect_vector(state);
            return Ok(());
        }
        self.package.unprotect_vector(state);
        self.read(state, bits, probability)
    }

    /// Records every outcome of the trailing measurements, read off `state`
    /// and scaled by the branch `probability`, one leaf each.
    fn read(&mut self, state: VEdge, bits: &[bool], probability: f64) -> Result<(), SimError> {
        self.check()?;
        let guard = &self.guard;
        let mut outcome = bits.to_vec();
        let mut pending: Vec<(Vec<bool>, f64)> = Vec::new();
        let mut next_merge = POLL_EVERY;
        let mut emitted = 0usize;
        let forked = read_outcomes(
            &mut self.package,
            state,
            &self.plan.trailing,
            probability,
            self.prune,
            &mut outcome,
            &mut |outcome, p, forked| {
                pending.push((outcome.to_vec(), p));
                emitted += 1;
                if emitted.is_multiple_of(POLL_EVERY) {
                    guard.poll()?;
                }
                if !forked {
                    return guard.check_leaves(pending.len());
                }
                // A repeated outcome is one leaf: merge repeats before the
                // limit is judged, and often enough to bound the buffer.
                if pending.len() >= next_merge {
                    merge_repeats(&mut pending);
                    next_merge = (2 * pending.len()).max(POLL_EVERY);
                    return guard.check_leaves(pending.len());
                }
                Ok(())
            },
        )?;
        if forked {
            merge_repeats(&mut pending);
        }
        guard.record_leaves(pending.len())?;
        obs::metrics::add(
            obs::metrics::SIM_EXTRACT_OUTCOMES_READ,
            pending.len() as u64,
        );
        for (outcome, p) in pending {
            self.distribution.add(outcome, p);
        }
        Ok(())
    }
}

/// Sorts `pending` by outcome and sums the probabilities of repeats.
fn merge_repeats(pending: &mut Vec<(Vec<bool>, f64)>) {
    pending.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    pending.dedup_by(|later, earlier| {
        let repeat = later.0 == earlier.0;
        if repeat {
            earlier.1 += later.1;
        }
        repeat
    });
}

/// Runs one extraction walk: the whole branch tree, or with `forced`
/// outcomes the sub-tree below them.
fn run_walk(
    circuit: &QuantumCircuit,
    plan: &Plan,
    initial: Option<&[bool]>,
    forced: &[bool],
    config: &ExtractionConfig,
    budget: &Budget,
    progress: &Progress,
) -> Result<(OutcomeDistribution, dd::MemoryStats), SimError> {
    let mut package = DdPackage::with_config(circuit.num_qubits(), budget.clone(), config.memory);
    let state = match initial {
        None => package.zero_state(),
        Some(bits) => package.basis_state(bits),
    };
    let mut extractor = Extractor {
        package,
        ops: circuit.ops(),
        plan,
        forced,
        prune: config.prune_threshold,
        guard: Guard {
            budget: budget.clone(),
            max_leaves: budget.max_leaves(),
            progress,
        },
        distribution: OutcomeDistribution::new(circuit.num_bits()),
    };
    let mut bits = vec![false; circuit.num_bits()];
    extractor.explore(0, state, &mut bits, 1.0, 0)?;
    Ok((extractor.distribution, extractor.package.memory_stats()))
}

/// Extracts the complete measurement-outcome distribution of `circuit` for
/// the all-zeros input state.
///
/// # Errors
///
/// None in practice: the walk runs under an unlimited budget, so no limit
/// can trip. Leaf limits are budget limits: see
/// [`extract_distribution_budgeted`].
///
/// # Examples
///
/// The paper's running example (Example 7 / Fig. 4): the 3-bit IQPE circuit
/// for `U = P(3π/8)` yields `|001⟩` with probability ≈ 0.408.
///
/// ```
/// use algorithms::qpe;
/// use sim::{extract_distribution, ExtractionConfig};
///
/// let phi = 3.0 * std::f64::consts::PI / 8.0;
/// let iqpe = qpe::iqpe_dynamic(phi, 3);
/// let result = extract_distribution(&iqpe, &ExtractionConfig::default())?;
/// let p001 = result.distribution.probability(&vec![true, false, false]);
/// assert!((p001 - 0.408).abs() < 0.01);
/// # Ok::<(), sim::SimError>(())
/// ```
pub fn extract_distribution(
    circuit: &QuantumCircuit,
    config: &ExtractionConfig,
) -> Result<ExtractionResult, SimError> {
    extract_distribution_from(circuit, None, config)
}

/// Variant of [`extract_distribution`] starting from the computational basis
/// state given by `initial` (`initial[q]` is the value of qubit `q`).
///
/// # Errors
///
/// Returns [`SimError::InitialStateMismatch`] when the initial state length
/// does not match the circuit.
pub fn extract_distribution_from(
    circuit: &QuantumCircuit,
    initial: Option<&[bool]>,
    config: &ExtractionConfig,
) -> Result<ExtractionResult, SimError> {
    extract_distribution_budgeted(circuit, initial, config, &Budget::unlimited())
}

/// Budget-aware variant of [`extract_distribution_from`].
///
/// The extraction observes `budget` cooperatively: it stops on
/// cancellation, at the deadline or when the node limit trips (reported as
/// [`SimError::Interrupted`]), and when more leaves would be recorded than
/// the budget's leaf limit ([`Budget::with_leaf_limit`], reported as
/// [`SimError::BranchLimitExceeded`]).
///
/// This is the entry point the portfolio engine uses to race the Section 5
/// scheme against functional verification: when another scheme wins, the
/// shared cancel token makes this extraction return within a few hundred
/// node allocations (or a few thousand outcomes read) instead of finishing
/// a hopeless branch walk.
///
/// # Errors
///
/// Same as [`extract_distribution_from`], plus [`SimError::Interrupted`] and
/// [`SimError::BranchLimitExceeded`].
pub fn extract_distribution_budgeted(
    circuit: &QuantumCircuit,
    initial: Option<&[bool]>,
    config: &ExtractionConfig,
    budget: &Budget,
) -> Result<ExtractionResult, SimError> {
    let start = Instant::now();
    if let Some(bits) = initial {
        if bits.len() != circuit.num_qubits() {
            return Err(SimError::InitialStateMismatch {
                expected: circuit.num_qubits(),
                provided: bits.len(),
            });
        }
    }
    let plan = Plan::new(circuit, 0);
    let progress = Progress::default();
    let (distribution, memory) = run_walk(circuit, &plan, initial, &[], config, budget, &progress)?;
    Ok(ExtractionResult {
        distribution,
        leaves: progress.leaves.into_inner(),
        branch_points: branch_indices(circuit.ops()).count(),
        duration: start.elapsed(),
        memory,
    })
}

/// Parallel variant of [`extract_distribution`]: the branch tree is split at
/// the first few branching points and the resulting sub-trees are explored by
/// independent worker threads, each with its own decision-diagram package.
///
/// The result is identical to the sequential extraction; only the wall-clock
/// time changes. `threads` is clamped to at least 1.
///
/// # Errors
///
/// Same as [`extract_distribution`].
pub fn extract_distribution_parallel(
    circuit: &QuantumCircuit,
    config: &ExtractionConfig,
    threads: usize,
) -> Result<ExtractionResult, SimError> {
    extract_distribution_parallel_budgeted(circuit, config, threads, &Budget::unlimited())
}

/// Budget-aware variant of [`extract_distribution_parallel`].
///
/// Every worker's package observes `budget` and is sized by
/// [`ExtractionConfig::memory`], as in [`extract_distribution_budgeted`].
/// The leaf limit counts the leaves of all workers together, and the first
/// worker to fail stops the others.
///
/// # Errors
///
/// Same as [`extract_distribution_budgeted`].
pub fn extract_distribution_parallel_budgeted(
    circuit: &QuantumCircuit,
    config: &ExtractionConfig,
    threads: usize,
    budget: &Budget,
) -> Result<ExtractionResult, SimError> {
    let branch_points = branch_indices(circuit.ops()).count();
    // Depth of the forced prefix: 2^depth sub-trees.
    let depth = (threads.max(1) as f64).log2().ceil() as usize;
    let depth = depth.min(branch_points).min(8);
    if depth == 0 {
        return extract_distribution_budgeted(circuit, None, config, budget);
    }

    let start = Instant::now();
    let plan = Plan::new(circuit, depth);
    let progress = Progress::default();
    let failure = OnceLock::new();
    let prefixes: Vec<Vec<bool>> = (0..(1usize << depth))
        .map(|mask| (0..depth).map(|i| (mask >> i) & 1 == 1).collect())
        .collect();
    let partials: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = prefixes
            .iter()
            .map(|prefix| {
                let (plan, progress, failure) = (&plan, &progress, &failure);
                scope.spawn(move || {
                    run_walk(circuit, plan, None, prefix, config, budget, progress)
                        .map_err(|error| {
                            // Record the first failure before stopping the
                            // others, so their interruptions never mask it.
                            let _ = failure.set(error);
                            progress.stop.store(true, Ordering::Release);
                        })
                        .ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    if let Some(error) = failure.into_inner() {
        return Err(error);
    }

    let mut distribution = OutcomeDistribution::new(circuit.num_bits());
    let mut memory = dd::MemoryStats::default();
    for (partial, partial_memory) in partials.into_iter().flatten() {
        memory = memory.merged_with(&partial_memory);
        for (outcome, p) in partial.iter() {
            distribution.add(outcome.clone(), p);
        }
    }
    Ok(ExtractionResult {
        distribution,
        leaves: progress.leaves.into_inner(),
        branch_points,
        duration: start.elapsed(),
        memory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{bv, qft, qpe};

    #[test]
    fn figure_4_of_the_paper() {
        // 3-bit IQPE of U = P(3π/8), eigenstate |1⟩, input |0001⟩: the
        // distribution from Fig. 4 of the paper.
        let phi = 3.0 * std::f64::consts::PI / 8.0;
        let iqpe = qpe::iqpe_dynamic(phi, 3);
        let result = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        let d = &result.distribution;
        // Bits are little-endian: outcome[i] = classical bit i = c_i.
        let p = |c2: bool, c1: bool, c0: bool| d.probability(&[c0, c1, c2]);
        // Fig. 4 leaf probabilities (paper rounds to two decimals):
        // |000⟩: 0.5·0.15·0.69, |100⟩: 0.5·0.15·0.31, |010⟩: 0.5·0.85·0.96·... —
        // we check the two headline values and the normalisation.
        assert!((p(false, false, true) - 0.408).abs() < 0.01, "P(|001⟩)");
        assert!((p(false, true, false) - 0.408).abs() < 0.01, "P(|010⟩)");
        assert!((d.total() - 1.0).abs() < 1e-9);
        assert_eq!(result.branch_points, 3 + 2); // 3 measurements + 2 resets
        assert!(result.leaves <= 1 << 5);
    }

    #[test]
    fn exact_phase_iqpe_is_deterministic() {
        let pattern = [true, false, true, true];
        let phi = qpe::phase_from_bits(&pattern);
        let iqpe = qpe::iqpe_dynamic(phi, 4);
        let result = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.distribution.len(), 1);
        let (outcome, p) = result.distribution.most_probable().unwrap();
        assert!((p - 1.0).abs() < 1e-9);
        // Classical bit i of the IQPE is the i-th *least* significant bit of
        // the estimate; pattern[0] is the most significant.
        let expected: Vec<bool> = pattern.iter().rev().copied().collect();
        assert_eq!(outcome, &expected);
        // Zero-probability branches are pruned: far fewer than 2^m leaves.
        assert_eq!(result.leaves, 1);
    }

    #[test]
    fn dynamic_bv_recovers_hidden_string_deterministically() {
        let hidden = vec![true, false, false, true, true, false, true];
        let circuit = bv::bv_dynamic(&hidden);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.distribution.len(), 1);
        let (outcome, p) = result.distribution.most_probable().unwrap();
        assert!((p - 1.0).abs() < 1e-9);
        assert_eq!(outcome, &hidden);
        assert_eq!(result.leaves, 1);
    }

    #[test]
    fn dynamic_qft_distribution_is_uniform_and_dense() {
        // QFT of |0…0⟩ is the uniform superposition: every outcome has the
        // same probability and the extraction needs 2^n leaves.
        let n = 5;
        let circuit = qft::qft_dynamic(n);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.distribution.len(), 1 << n);
        assert_eq!(result.leaves, 1 << n);
        for (_, p) in result.distribution.iter() {
            assert!((p - 1.0 / (1 << n) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn branch_limit_is_enforced() {
        let circuit = qft::qft_dynamic(6);
        let budget = dd::Budget::unlimited().with_leaf_limit(10);
        assert!(matches!(
            extract_distribution_budgeted(&circuit, None, &ExtractionConfig::default(), &budget),
            Err(SimError::BranchLimitExceeded { limit: 10 })
        ));
        // A limit the walk stays within changes nothing.
        let roomy = dd::Budget::unlimited().with_leaf_limit(64);
        let result =
            extract_distribution_budgeted(&circuit, None, &ExtractionConfig::default(), &roomy);
        assert_eq!(result.unwrap().leaves, 64);
    }

    #[test]
    fn budget_leaf_limit_merges_with_config() {
        let circuit = qft::qft_dynamic(6);
        // The budget's leaf limit applies whatever else the config sets.
        let config = ExtractionConfig {
            prune_threshold: 1e-9,
            ..Default::default()
        };
        let budget = dd::Budget::unlimited().with_leaf_limit(10);
        assert!(matches!(
            extract_distribution_budgeted(&circuit, None, &config, &budget),
            Err(SimError::BranchLimitExceeded { limit: 10 })
        ));
        // The config carries no leaf limit of its own: an unlimited budget
        // walks every leaf.
        let result =
            extract_distribution_budgeted(&circuit, None, &config, &dd::Budget::unlimited());
        assert_eq!(result.unwrap().leaves, 64);
    }

    #[test]
    fn custom_initial_state() {
        // A circuit that simply measures both qubits, started in |10⟩.
        let mut qc = circuit::QuantumCircuit::new(2, 2);
        qc.measure(0, 0).measure(1, 1);
        let result =
            extract_distribution_from(&qc, Some(&[false, true]), &ExtractionConfig::default())
                .unwrap();
        assert_eq!(result.distribution.len(), 1);
        assert!((result.distribution.probability(&[false, true]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn initial_state_length_is_validated() {
        let qc = circuit::QuantumCircuit::new(2, 0);
        assert!(matches!(
            extract_distribution_from(&qc, Some(&[true]), &ExtractionConfig::default()),
            Err(SimError::InitialStateMismatch { .. })
        ));
    }

    #[test]
    fn cancelled_budget_interrupts_extraction() {
        let circuit = qft::qft_dynamic(10);
        let token = dd::CancelToken::new();
        let budget = dd::Budget::unlimited().with_cancel_token(token.clone());
        token.cancel();
        let started = std::time::Instant::now();
        let result =
            extract_distribution_budgeted(&circuit, None, &ExtractionConfig::default(), &budget);
        assert!(matches!(
            result,
            Err(SimError::Interrupted(dd::LimitExceeded::Cancelled))
        ));
        // A full 2^10-leaf walk would take far longer than the early exit.
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let phi = qpe::phase_from_bits(&[true, true, false, true]);
        // Use an inexact phase so that the distribution has many outcomes.
        let iqpe = qpe::iqpe_dynamic(phi + 0.1, 5);
        let sequential = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        let parallel =
            extract_distribution_parallel(&iqpe, &ExtractionConfig::default(), 4).unwrap();
        assert!(sequential
            .distribution
            .approx_eq(&parallel.distribution, 1e-9));
        assert_eq!(sequential.branch_points, parallel.branch_points);
    }

    #[test]
    fn static_measured_circuit_is_read_without_branching() {
        // Every measurement of the static QFT is trailing: one read of the
        // final state records all 2^n outcomes, one leaf each.
        let n = 6;
        let circuit = qft::qft_static(n, None, true);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.leaves, 1 << n);
        assert_eq!(result.branch_points, n);
        let mut simulator = crate::StateVectorSimulator::new(n);
        simulator.run(&circuit).unwrap();
        assert!(result
            .distribution
            .approx_eq(&simulator.outcome_distribution(), 1e-12));
    }

    #[test]
    fn repeated_outcomes_of_a_traced_out_qubit_are_one_leaf() {
        // Qubit 2 (top) is entangled with qubit 1 and never measured, so
        // the read descends both of its branches and reaches each outcome
        // of qubit 0 twice. Each recorded outcome is still one leaf.
        let mut qc = circuit::QuantumCircuit::new(3, 1);
        qc.h(2).cx(2, 1).h(0).measure(0, 0);
        let result = extract_distribution(&qc, &ExtractionConfig::default()).unwrap();
        assert_eq!(result.leaves, 2);
        assert!((result.distribution.probability(&[false]) - 0.5).abs() < 1e-12);
        assert!((result.distribution.probability(&[true]) - 0.5).abs() < 1e-12);
        let limited = dd::Budget::unlimited().with_leaf_limit(1);
        assert!(matches!(
            extract_distribution_budgeted(&qc, None, &ExtractionConfig::default(), &limited),
            Err(SimError::BranchLimitExceeded { limit: 1 })
        ));
    }

    #[test]
    fn parallel_leaf_limit_counts_every_worker() {
        // 64 leaves over 4 workers of 16: only a global count trips 40.
        let circuit = qft::qft_dynamic(6);
        let budget = dd::Budget::unlimited().with_leaf_limit(40);
        assert!(matches!(
            extract_distribution_parallel_budgeted(
                &circuit,
                &ExtractionConfig::default(),
                4,
                &budget
            ),
            Err(SimError::BranchLimitExceeded { limit: 40 })
        ));
        let unlimited = extract_distribution_parallel(&circuit, &ExtractionConfig::default(), 4);
        assert_eq!(unlimited.unwrap().leaves, 64);
    }

    #[test]
    fn parallel_extraction_observes_the_budget() {
        let circuit = qft::qft_dynamic(10);
        let config = ExtractionConfig::default();
        let token = dd::CancelToken::new();
        token.cancel();
        let cancelled = dd::Budget::unlimited().with_cancel_token(token);
        assert!(matches!(
            extract_distribution_parallel_budgeted(&circuit, &config, 4, &cancelled),
            Err(SimError::Interrupted(dd::LimitExceeded::Cancelled))
        ));
        let tiny = dd::Budget::unlimited().with_node_limit(4);
        assert!(matches!(
            extract_distribution_parallel_budgeted(&circuit, &config, 4, &tiny),
            Err(SimError::Interrupted(dd::LimitExceeded::NodeLimit))
        ));
    }

    #[test]
    fn parallel_extraction_sizes_packages_from_the_config() {
        let phi = qpe::phase_from_bits(&[true, false, true]) + 0.1;
        let iqpe = qpe::iqpe_dynamic(phi, 5);
        let config = ExtractionConfig {
            memory: dd::MemoryConfig {
                gc_threshold: Some(16),
                ..Default::default()
            },
            ..Default::default()
        };
        let parallel = extract_distribution_parallel(&iqpe, &config, 2).unwrap();
        assert!(parallel.memory.gc_runs > 0, "the low GC threshold applies");
        let sequential = extract_distribution(&iqpe, &ExtractionConfig::default()).unwrap();
        assert!(sequential
            .distribution
            .approx_eq(&parallel.distribution, 1e-9));
    }

    #[test]
    fn parallel_extraction_of_a_static_circuit_forces_trailing_measurements() {
        // The forced prefix lies inside the trailing measurements: those are
        // branched on, the rest are read.
        let n = 5;
        let circuit = qft::qft_static(n, None, true);
        let sequential = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        let parallel =
            extract_distribution_parallel(&circuit, &ExtractionConfig::default(), 4).unwrap();
        assert_eq!(parallel.leaves, 1 << n);
        assert!(sequential
            .distribution
            .approx_eq(&parallel.distribution, 1e-12));
    }

    #[test]
    fn parallel_with_one_thread_falls_back_to_sequential() {
        let circuit = bv::bv_dynamic(&[true, true]);
        let a = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        let b = extract_distribution_parallel(&circuit, &ExtractionConfig::default(), 1).unwrap();
        assert!(a.distribution.approx_eq(&b.distribution, 1e-12));
    }

    #[test]
    fn teleportation_preserves_the_payload_distribution() {
        // Teleport a state with known ⟨Z⟩ statistics and verify the final
        // measurement of the target qubit reproduces them, no matter which
        // Bell-measurement branch was taken.
        let (theta, phi_angle, lambda) = (1.1, 0.4, -0.7);
        let circuit = algorithms::teleport::teleport(theta, phi_angle, lambda, true);
        let result = extract_distribution(&circuit, &ExtractionConfig::default()).unwrap();
        // P(c2 = 1) should equal sin²(θ/2) for the payload U(θ,φ,λ)|0⟩.
        let expected_p1 = (theta / 2.0).sin().powi(2);
        let mut p1 = 0.0;
        for (outcome, p) in result.distribution.iter() {
            if outcome[2] {
                p1 += p;
            }
        }
        assert!((p1 - expected_p1).abs() < 1e-9);
        // All four Bell branches occur with probability 1/4 each.
        for c0 in [false, true] {
            for c1 in [false, true] {
                let mut branch = 0.0;
                for (outcome, p) in result.distribution.iter() {
                    if outcome[0] == c0 && outcome[1] == c1 {
                        branch += p;
                    }
                }
                assert!((branch - 0.25).abs() < 1e-9);
            }
        }
    }
}
