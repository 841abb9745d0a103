//! # nonunitary-qcec — equivalence checking of dynamic quantum circuits
//!
//! Workspace façade crate: re-exports the individual crates of this
//! reproduction of *Burgholzer & Wille, "Handling Non-Unitaries in Quantum
//! Circuit Equivalence Checking" (DAC 2022)* so that downstream users can
//! depend on a single crate.
//!
//! * [`dd`] — decision-diagram package (states, unitaries, their algebra),
//! * [`circuit`] — quantum-circuit IR with measurements, resets and
//!   classically-controlled operations,
//! * [`algorithms`] — benchmark circuit generators (BV, QFT, QPE, …),
//! * [`transform`] — reset substitution + deferred measurements (Section 4),
//! * [`sim`] — decision-diagram simulation, measurement-outcome extraction
//!   (Section 5) and stochastic shot sampling,
//! * [`density`] — dense density-matrix / ensemble simulation (the reference
//!   oracle and the noise-model extension),
//! * [`compile`] — compilation passes (decomposition, basis rewriting,
//!   routing) for the "verify compilation results" use case,
//! * [`qcec`] — the equivalence-checking flows built on all of the above,
//! * [`portfolio`] — the parallel portfolio engine racing all applicable
//!   schemes with cooperative cancellation, plus the `verify` batch driver
//!   that fans whole workloads (JSON manifests or QASM directories) over a
//!   worker pool and emits machine-readable JSON reports.
//!
//! Long-running checks share one resource-limit vocabulary
//! ([`qcec::Budget`] / [`qcec::CancelToken`], re-exported from [`dd`]):
//! every entry point — the single-scheme checks, the extraction, the
//! `table1` harness and the portfolio — can be cancelled cooperatively and
//! capped in decision-diagram nodes and extraction leaves.
//!
//! Racing the schemes instead of picking one is the practical upshot of the
//! paper: functional reconstruction (Section 4) and fixed-input extraction
//! (Section 5) have wildly different cost profiles per circuit family, so
//! the portfolio's wall time tracks whichever happens to be fast. A
//! [`dd::DdPackage`] is single-threaded, and a race runs one package per
//! scheme thread: the racing schemes share nothing but a cancel token, so
//! the race needs no locks and the losers unwind as soon as a winner
//! reports:
//!
//! ```
//! use algorithms::qpe;
//! use portfolio::{verify_portfolio, PortfolioConfig};
//!
//! let phi = 3.0 * std::f64::consts::PI / 8.0;
//! let result = verify_portfolio(
//!     &qpe::qpe_static(phi, 3, true),
//!     &qpe::iqpe_dynamic(phi, 3),
//!     &PortfolioConfig::default(),
//! );
//! assert!(result.verdict.considered_equivalent());
//! ```
//!
//! ```
//! use algorithms::qpe;
//! use qcec::{verify_dynamic_functional, Configuration};
//!
//! let phi = 3.0 * std::f64::consts::PI / 8.0;
//! let report = verify_dynamic_functional(
//!     &qpe::qpe_static(phi, 3, true),
//!     &qpe::iqpe_dynamic(phi, 3),
//!     &Configuration::default(),
//! )?;
//! assert!(report.equivalence.considered_equivalent());
//! # Ok::<(), qcec::DynamicCheckError>(())
//! ```

pub use algorithms;
pub use circuit;
pub use compile;
pub use dd;
pub use density;
pub use portfolio;
pub use qcec;
pub use sim;
pub use transform;
