//! Kernel-layer microbenchmark and the cross-backend parity smoke.
//!
//! One measurement, written to `BENCH_kernels.json` at the repository root:
//! `dot_conj_lanes` — the conjugated dot product behind `sim`'s dense
//! fidelity check, runtime-dispatched backend vs the always-compiled scalar
//! fallback on the same lanes.
//!
//! Before timing anything, the bench *asserts* parity: the dispatched dot
//! product must be bit-identical to the scalar fallback, so a backend whose
//! results drift from the fallback fails the build, not just the artifact.

use bench::emit;
use dd::kernels;

const LANES: usize = 1024;
const DOT_REPS: usize = 2048;
const ROUNDS: usize = 21;

/// Interleaved min-of-`ROUNDS` for a dispatched/scalar kernel pair.
///
/// The two bursts alternate inside every round, so load spikes on this
/// (noisy, single-core) machine hit both backends roughly equally instead
/// of biasing whichever ran second; the minima are then comparable.
fn interleaved_min(mut burst: impl FnMut(bool)) -> (f64, f64) {
    let (mut best_d, mut best_s) = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        burst(true);
        best_d = best_d.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        burst(false);
        best_s = best_s.min(start.elapsed().as_secs_f64());
    }
    (best_d, best_s)
}

/// Deterministic xorshift64* stream in [-1, 1).
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        let mantissa = (self.0.wrapping_mul(0x2545F4914F6CDD1D)) >> 11;
        (mantissa as f64 / (1u64 << 52) as f64) * 2.0 - 1.0
    }
}

fn filled(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64()).collect()
}

/// Panics unless the dispatched dot product is bit-identical to the scalar
/// fallback on `LANES` pseudo-random lanes — same accumulator schedule, no
/// FMA contraction.
fn assert_dot_parity(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) {
    let dot = kernels::dot_conj_lanes(ar, ai, br, bi);
    let dot_scalar = kernels::dot_conj_lanes_scalar(ar, ai, br, bi);
    assert!(
        dot.re.to_bits() == dot_scalar.re.to_bits() && dot.im.to_bits() == dot_scalar.im.to_bits(),
        "dot_conj_lanes: dispatched {dot:?} != scalar {dot_scalar:?}"
    );
    println!(
        "kernel parity: {} backend bit-identical to scalar on {} lanes",
        kernels::backend().name(),
        ar.len()
    );
}

fn main() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    let ar = filled(&mut rng, LANES);
    let ai = filled(&mut rng, LANES);
    let br = filled(&mut rng, LANES);
    let bi = filled(&mut rng, LANES);

    // Parity smoke first: no point timing a wrong kernel.
    assert_dot_parity(&ar, &ai, &br, &bi);

    // The fidelity inner product is a reduction, so the scalar fallback
    // cannot autovectorize it (strict FP summation order) and the explicit
    // 4-accumulator AVX2 kernel shows the full SIMD headroom.
    let (dot_secs, dot_scalar_secs) = interleaved_min(|dispatched| {
        for _ in 0..DOT_REPS {
            std::hint::black_box(if dispatched {
                kernels::dot_conj_lanes(&ar, &ai, &br, &bi)
            } else {
                kernels::dot_conj_lanes_scalar(&ar, &ai, &br, &bi)
            });
        }
    });

    let backend = kernels::backend().name();
    println!(
        "dot_conj_lanes[{backend}]: {:.3}ms vs scalar {:.3}ms ({:.2}x) on {LANES} lanes x {DOT_REPS}",
        dot_secs * 1e3,
        dot_scalar_secs * 1e3,
        dot_scalar_secs / dot_secs
    );

    let row = format!(
        "    {{ \"kernel\": \"dot_conj_lanes\", \"backend\": \"{backend}\", \
         \"lanes\": {LANES}, \"reps\": {DOT_REPS}, \"secs\": {dot_secs:.6}, \
         \"scalar_secs\": {dot_scalar_secs:.6}, \"speedup\": {:.4} }}",
        dot_scalar_secs / dot_secs
    );
    let json = emit::envelope(
        "kernels",
        "Dense-fidelity dot-product kernel: dispatched backend vs scalar fallback \
         (interleaved min-of-21)",
        &[
            "single machine, min-of-N wall times: cross-machine comparisons are meaningless, \
             same-machine ratios are the signal",
            "strict FP summation order keeps the scalar reduction from autovectorizing, so \
             the ratio shows the full SIMD headroom of the explicit 4-accumulator kernel; the \
             end-to-end effect is bounded by how much of a check the fidelity reduction takes",
            "under a scalar-kernels build, or on a host without AVX2, both columns time the \
             same scalar loop and the ratio is ~1",
        ],
        &[("kernels", format!("[\n{row}\n  ]"))],
    );
    emit::write_artifact("BENCH_kernels.json", &json);
}
