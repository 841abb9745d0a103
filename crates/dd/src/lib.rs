//! # dd — decision diagrams for quantum states and operators
//!
//! This crate implements a QMDD-style decision-diagram package: a compact,
//! canonical representation of `2^n`-dimensional state vectors and
//! `2^n × 2^n` unitary matrices with the operations needed for quantum
//! circuit simulation and equivalence checking.
//!
//! It is the substrate on which the equivalence-checking schemes of
//! *Burgholzer & Wille, "Handling Non-Unitaries in Quantum Circuit
//! Equivalence Checking" (DAC 2022)* are reproduced: the paper's tool (QCEC)
//! builds on an equivalent C++ package.
//!
//! ## Highlights
//!
//! * Canonical diagrams through weight normalisation, an interning
//!   [`ComplexTable`] and hash-consed unique tables.
//! * Vector diagrams ([`VEdge`]) and matrix diagrams ([`MEdge`]) with
//!   addition, matrix-vector and matrix-matrix multiplication, Kronecker-free
//!   controlled-gate construction, conjugate transposition, inner products,
//!   traces, measurement probabilities and projections.
//! * A managed memory system (see below): bounded lossy compute tables,
//!   per-level open-addressed unique tables, a gate-diagram cache and
//!   mark-and-sweep garbage collection with recycled arena slots.
//! * Dense conversions (for small registers) used extensively by the test
//!   suite to validate the diagram algebra against straightforward linear
//!   algebra.
//!
//! ## Memory model
//!
//! A [`DdPackage`] owns two node arenas (vector and matrix) with free lists.
//! Hash-consing goes through one open-addressed unique table per qubit
//! level; memoisation goes through fixed-size *lossy* caches — direct
//! mapped, one probe per lookup, overwrite on collision — so cache memory is
//! bounded by construction and an evicted entry only ever costs a
//! recomputation, never a wrong result. Sizing is controlled by
//! [`MemoryConfig`]; hit rates and collection counts are reported by
//! [`DdPackage::memory_stats`].
//!
//! Garbage collection is mark-and-sweep from three root sets: edges
//! registered through [`DdPackage::protect_vector`] /
//! [`DdPackage::protect_matrix`] (reference counted), the identity and
//! gate-diagram caches, and the operands of the operation that triggered an
//! automatic run. Automatic collection only happens at the *entry* of
//! top-level operations (`apply_gate`, the multiplications, additions and
//! the conjugate transpose), never mid-recursion. **Callers must protect any
//! edge they hold across other package operations** and unprotect it when
//! done; an edge that is an operand of the current call is protected
//! automatically. After a collection the node-keyed compute tables are
//! cleared (arena slots are recycled under the same ids), while cached gate
//! diagrams remain valid because they are roots. The same pass compacts the
//! [`ComplexTable`]: weights referenced by no surviving node, protected
//! edge or cached diagram are freed and their slots recycled, bounding
//! weight-table growth on long runs (`MemoryStats::complex_entries` /
//! `complex_reclaimed` report the effect).
//!
//! ## Kernel layer
//!
//! The numeric hot paths run on data-parallel kernels over *structure-of-
//! arrays* lanes: complex values are stored and processed as separate
//! `re`/`im` `f64` slices (the [`ComplexTable`] itself stores its entries
//! this way). The [`kernels`] module dispatches each operation once per
//! process: `AVX2` intrinsics when the CPU has them, otherwise an
//! autovectorizable scalar loop that is always compiled (and can be forced
//! with the `scalar-kernels` cargo feature, which CI builds and benches on
//! every push). The two backends are **bit-identical by construction** —
//! no FMA contraction, the same per-lane expression trees, and reductions
//! that use a fixed 4-accumulator schedule in both — so a verdict can
//! never depend on which machine produced it; the kernel bench asserts
//! this bitwise on every CI run.
//!
//! Three layers sit on the kernels:
//!
//! * **Batched interning** — [`ComplexTable::lookup_batch`] hashes a whole
//!   slice's bucket keys in one pass and probes each value's merged
//!   candidate set with one vectorized tolerance scan, returning exactly
//!   the `CIdx` sequence the scalar [`ComplexTable::lookup`] loop would
//!   (property-tested, including near-bucket-boundary adversaries).
//! * **Dense terminal-case apply** — below
//!   [`MemoryConfig::dense_cutoff`](MemoryConfig) levels (default
//!   [`DEFAULT_DENSE_CUTOFF`] = 3, clamped to [`DENSE_CUTOFF_MAX`], 0
//!   disables), the *vector* recursions (mat·vec apply, vector add) expand
//!   node functions into dense SoA amplitude blocks, compute with strided
//!   kernels and re-intern the result in one batch. Matrix·matrix and
//!   matrix-add recursions never drop dense: their blocks are 4^levels
//!   wide, and measurement showed the expand/re-intern round trip losing
//!   ~3x to the memoized recursion on structured miters — which is why the
//!   dense path is mat·vec-only (verdict parity across cutoffs is asserted
//!   by `portfolio/tests/dense_parity.rs`; see `BENCH_kernels.json`
//!   caveats).
//! * **Dense fidelity** — `sim`'s statevector comparison extracts both
//!   diagrams' amplitudes into lanes
//!   ([`DdPackage::amplitude_lanes`]) and reduces with the conjugated dot
//!   kernel, the one kernel where SIMD shows its full headroom (the
//!   strict-FP scalar reduction cannot autovectorize).
//!
//! ## Concurrency model
//!
//! A [`DdPackage`] is single-threaded (`Send`, not `Sync`) and owns all of
//! its state: arenas, unique tables, the complex table, the compute caches,
//! the [`Budget`] and [`MemoryStats`]. Concurrency lives one layer up: a
//! portfolio race runs one private package per scheme thread, and the
//! threads share nothing but a [`CancelToken`] — the winner trips it and the
//! losers unwind at their next allocation or safe point. Garbage collection
//! therefore never coordinates across threads.
//!
//! ## Observability
//!
//! The crate reports into the `obs` metrics registry — always on, one
//! relaxed atomic add per event on the rare paths and bulk folds on the hot
//! ones (per-operation cache counters are summed into the registry once,
//! when a [`DdPackage`] drops) — and emits structured spans/events through
//! `obs::trace` when a sink is installed (`verify --trace-file`). With no
//! sink, tracing costs one relaxed atomic load per call site.
//!
//! Each metric's catalogue entry carries a *caveat*: what the number
//! misleads about when read alone. The dd metrics (unit in parentheses):
//!
//! | metric | unit | misleads about |
//! |---|---|---|
//! | `dd.compute.lookups` / `dd.compute.hits` | count | folded at package drop; live packages are invisible until then |
//! | `dd.gate.lookups` / `dd.gate.hits` | count | repeated single-gate circuits hit ~100% regardless of cache quality |
//! | `dd.gc.runs` / `dd.gc.reclaimed` | count | high counts can be healthy pressure or a thrashing threshold — check reclaimed per run |
//! | `dd.ctab.compacted` | count | entries, not bytes; rehashing survivors is not counted |
//! | `dd.kernels.backend_avx2` / `_scalar` | count | one increment per process at first dispatch — a config gauge, not a usage meter |
//! | `dd.dense.applies` | count | counts compute-cache *misses* routed dense; a high hit rate makes this small regardless of the cutoff |
//! | `dd.ctab.batch_interned` | count | counts weights, not batches; says nothing about lock acquisitions saved |
//! | `dd.gates.twiddle_hits` | count | only cold gate-DD builds reach this path — the gate cache absorbs repeats first |
//!
//! The catalogue still lists `dd.unique.hits`,
//! `dd.unique.cross_thread_hits`, `dd.store.shard_contention_ns` and
//! `dd.gc.park_ns`, which only a shared multi-thread store filled: they
//! always read 0 now, and are kept because the benchmark harness reads
//! them.
//!
//! Trace events: one `gc.private` event per collection, with the reclaimed
//! node and complex-table counts.
//!
//! ## Quick example
//!
//! ```
//! use dd::{Control, DdPackage, gates};
//!
//! // Build a Bell state and check its measurement statistics.
//! let mut p = DdPackage::new(2);
//! let mut state = p.zero_state();
//! state = p.apply_gate(state, &gates::h(), 0, &[]);
//! state = p.apply_gate(state, &gates::x(), 1, &[Control::pos(0)]);
//! let (p0, p1) = p.probabilities(state, 1);
//! assert!((p0 - 0.5).abs() < 1e-12);
//! assert!((p1 - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

mod cache;
mod complex;
pub mod gates;
mod hash;
pub mod kernels;
mod limits;
mod node;
mod package;
mod table;

mod export;

pub use cache::CacheCounters;
pub use complex::{Complex, TOLERANCE};
pub use gates::GateMatrix;
pub use limits::{Budget, CancelToken, LimitExceeded};
pub use node::{MEdge, MNode, NodeId, VEdge, VNode};
pub use package::{
    Control, DdPackage, MemoryConfig, MemoryStats, PackageStats, DEFAULT_DENSE_CUTOFF,
    DEFAULT_GC_THRESHOLD, DENSE_CUTOFF_MAX,
};
pub use table::{CIdx, ComplexTable};
