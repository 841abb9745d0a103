//! Reading measurement-outcome probabilities off a state decision diagram.
//!
//! Measurements with no operation after them do not need to collapse the
//! state: the probability of every outcome is a product of squared edge
//! weights along a path of the diagram. This module holds the one walk that
//! enumerates those outcomes. [`crate::StateVectorSimulator`] uses it for
//! its recorded trailing measurements, and the branching extraction uses it
//! once the only operations left are measurements and barriers.

use dd::{CIdx, DdPackage, VEdge};

/// Which classical bits each qubit's trailing measurement determines.
///
/// For every classical bit the *last* measurement writing it wins; earlier
/// writers are traced out. One qubit may determine several bits.
#[derive(Debug, Clone)]
pub(crate) struct ReadPlan {
    /// `bits_of_qubit[q]`: the classical bits qubit `q` determines.
    bits_of_qubit: Vec<Vec<usize>>,
    /// The lowest qubit that determines a bit; `None` when none does.
    lowest: Option<usize>,
}

impl ReadPlan {
    /// Builds the plan from `(qubit, bit)` measurements in circuit order.
    pub(crate) fn new(
        n_qubits: usize,
        n_bits: usize,
        measurements: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let mut writer_of_bit: Vec<Option<usize>> = vec![None; n_bits];
        for (qubit, bit) in measurements {
            writer_of_bit[bit] = Some(qubit);
        }
        let mut bits_of_qubit: Vec<Vec<usize>> = vec![Vec::new(); n_qubits];
        for (bit, writer) in writer_of_bit.iter().enumerate() {
            if let Some(qubit) = writer {
                bits_of_qubit[*qubit].push(bit);
            }
        }
        let lowest = bits_of_qubit.iter().position(|bits| !bits.is_empty());
        ReadPlan {
            bits_of_qubit,
            lowest,
        }
    }
}

/// Walks `state` once and calls `emit(outcome, probability, forked)` for
/// every outcome of the plan's measured bits whose probability (`scale`
/// times the squared amplitude mass) reaches `prune`.
///
/// `outcome` starts as the prefix record: bits the plan does not determine
/// keep their value. `forked` is `true` once the walk has descended both
/// branches of an unmeasured qubit, after which one outcome may be emitted
/// more than once (its probabilities then add up). The walk stops below the
/// lowest measured qubit and takes the subtree's norm instead; an unmeasured
/// qubit whose two branches share one node is descended once.
///
/// Returns whether the walk forked, or the first error `emit` returned.
pub(crate) fn read_outcomes<E>(
    package: &mut DdPackage,
    state: VEdge,
    plan: &ReadPlan,
    scale: f64,
    prune: f64,
    outcome: &mut [bool],
    emit: &mut impl FnMut(&[bool], f64, bool) -> Result<(), E>,
) -> Result<bool, E> {
    let mut walk = Walk {
        package,
        plan,
        prune,
        outcome,
        forked: false,
    };
    let level = walk.package.n_qubits();
    walk.visit(state, level, scale, emit)?;
    Ok(walk.forked)
}

struct Walk<'a> {
    package: &'a mut DdPackage,
    plan: &'a ReadPlan,
    prune: f64,
    outcome: &'a mut [bool],
    forked: bool,
}

impl Walk<'_> {
    /// Visits `edge` (whose node sits at `level`, i.e. qubit `level - 1`)
    /// reached with squared path weight `weight` above it.
    fn visit<E>(
        &mut self,
        edge: VEdge,
        level: usize,
        weight: f64,
        emit: &mut impl FnMut(&[bool], f64, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        if edge.is_zero() {
            return Ok(());
        }
        let mass = weight * self.package.norm_sqr(edge);
        if mass < self.prune {
            return Ok(());
        }
        // Every qubit below `level` is unmeasured: the subtree's norm is
        // the outcome's probability.
        if self.plan.lowest.is_none_or(|lowest| level <= lowest) {
            return emit(self.outcome, mass, self.forked);
        }
        let qubit = level - 1;
        let weight = weight * self.package.vweight(edge).norm_sqr();
        let [low, high] = self.package.vector_children(edge);
        let plan = self.plan;
        let bits = &plan.bits_of_qubit[qubit];
        if bits.is_empty() {
            if !low.is_zero() && !high.is_zero() {
                if low.node == high.node {
                    // Tracing out a qubit whose branches share a node (a
                    // product state such as an ancilla in |−⟩) sums the two
                    // branch weights and walks the node once.
                    let summed = self.package.vweight(low).norm_sqr()
                        + self.package.vweight(high).norm_sqr();
                    let node = VEdge::new(low.node, CIdx::ONE);
                    return self.visit(node, level - 1, weight * summed, emit);
                }
                self.forked = true;
            }
            self.visit(low, level - 1, weight, emit)?;
            return self.visit(high, level - 1, weight, emit);
        }
        for (value, child) in [(false, low), (true, high)] {
            for &bit in bits {
                self.outcome[bit] = value;
            }
            self.visit(child, level - 1, weight, emit)?;
        }
        Ok(())
    }
}
