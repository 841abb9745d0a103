//! # sim — decision-diagram simulation and outcome-distribution extraction
//!
//! Two complementary capabilities built on top of the [`dd`] package:
//!
//! * [`StateVectorSimulator`] — classical Schrödinger-style simulation of
//!   *unitary* circuits (plus trailing measurements), used for the static
//!   reference circuits and for simulative equivalence checking.
//! * [`extract_distribution`] — the paper's Section 5 scheme: extracting the
//!   complete measurement-outcome distribution of a *dynamic* circuit by
//!   branching the simulation at every measurement and reset that is
//!   followed by further operations, check-pointing the outcome
//!   probabilities and pruning zero-probability branches.
//!
//! Both share one outcome walk for measurements with nothing after them:
//! it reads the probability of every outcome off the state decision diagram
//! in a single pass, stopping below the lowest measured qubit, instead of
//! collapsing the state once per outcome. The simulator reads its recorded
//! measurements that way; the extraction switches to it at the first
//! operation after which only measurements and barriers remain. A static
//! measured circuit is therefore never branched on, and a dynamic one only
//! up to its last non-measurement operation.
//!
//! ```
//! use algorithms::bv;
//! use sim::{extract_distribution, ExtractionConfig, StateVectorSimulator};
//!
//! let hidden = vec![true, false, true];
//! // Simulate the static circuit …
//! let mut static_sim = StateVectorSimulator::new(4);
//! static_sim.run(&bv::bv_static(&hidden, true))?;
//! let static_dist = static_sim.outcome_distribution();
//! // … extract the dynamic circuit's distribution …
//! let dynamic = extract_distribution(&bv::bv_dynamic(&hidden), &ExtractionConfig::default())?;
//! // … and compare.
//! assert!(static_dist.approx_eq(&dynamic.distribution, 1e-9));
//! # Ok::<(), sim::SimError>(())
//! ```

#![warn(missing_docs)]

mod distribution;
mod error;
mod extraction;
mod gate_map;
mod outcomes;
mod statevector;
mod stochastic;

pub use distribution::OutcomeDistribution;
pub use error::SimError;
pub use extraction::{
    extract_distribution, extract_distribution_budgeted, extract_distribution_from,
    extract_distribution_parallel, extract_distribution_parallel_budgeted, ExtractionConfig,
    ExtractionResult,
};
pub use gate_map::{controls as dd_controls, gate_matrix};
pub use statevector::StateVectorSimulator;
pub use stochastic::{
    sample_distribution, sample_record, shots_to_reach_tolerance, ShotConfig, ShotResult,
};
