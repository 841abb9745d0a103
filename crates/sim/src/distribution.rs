//! Measurement-outcome distributions and their comparison metrics.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A probability distribution over classical bit strings.
///
/// Outcomes are keyed by the vector of classical bit values (`outcome[b]` is
/// the value of classical bit `b`). Only outcomes with non-zero probability
/// are stored, so sparse distributions (such as the Bernstein–Vazirani or
/// exact-phase QPE outputs) stay small even for wide registers.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OutcomeDistribution {
    n_bits: usize,
    probabilities: BTreeMap<Vec<bool>, f64>,
}

impl OutcomeDistribution {
    /// Creates an empty distribution over `n_bits` classical bits.
    pub fn new(n_bits: usize) -> Self {
        OutcomeDistribution {
            n_bits,
            probabilities: BTreeMap::new(),
        }
    }

    /// Number of classical bits of each outcome.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of outcomes with non-zero recorded probability.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// Returns `true` when no outcome has been recorded.
    pub fn is_empty(&self) -> bool {
        self.probabilities.is_empty()
    }

    /// Adds `probability` mass to `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if the outcome length does not match the declared bit count.
    pub fn add(&mut self, outcome: Vec<bool>, probability: f64) {
        assert_eq!(outcome.len(), self.n_bits, "outcome length mismatch");
        if probability <= 0.0 {
            return;
        }
        *self.probabilities.entry(outcome).or_insert(0.0) += probability;
    }

    /// Probability of a specific outcome (0 when absent).
    pub fn probability(&self, outcome: &[bool]) -> f64 {
        self.probabilities.get(outcome).copied().unwrap_or(0.0)
    }

    /// Probability of the outcome given as a little-endian integer
    /// (bit `b` of `index` is classical bit `b`).
    pub fn probability_of_index(&self, index: usize) -> f64 {
        let outcome: Vec<bool> = (0..self.n_bits).map(|b| (index >> b) & 1 == 1).collect();
        self.probability(&outcome)
    }

    /// Iterator over `(outcome, probability)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<bool>, f64)> {
        self.probabilities.iter().map(|(k, &v)| (k, v))
    }

    /// Total recorded probability mass (1 for a complete distribution).
    pub fn total(&self) -> f64 {
        self.probabilities.values().sum()
    }

    /// Rescales the distribution to total mass one.
    ///
    /// No-op for an empty distribution.
    pub fn normalize(&mut self) {
        let total = self.total();
        if total > 0.0 {
            for p in self.probabilities.values_mut() {
                *p /= total;
            }
        }
    }

    /// The most probable outcome, if any.
    pub fn most_probable(&self) -> Option<(&Vec<bool>, f64)> {
        self.probabilities
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
            .map(|(k, &v)| (k, v))
    }

    /// The `k` most probable outcomes, most probable first.
    pub fn top_k(&self, k: usize) -> Vec<(Vec<bool>, f64)> {
        let mut entries: Vec<(Vec<bool>, f64)> = self
            .probabilities
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("probabilities are finite"));
        entries.truncate(k);
        entries
    }

    /// Total-variation distance `½ Σ |p(x) − q(x)|` to another distribution.
    ///
    /// # Panics
    ///
    /// Panics if the bit counts differ.
    pub fn total_variation_distance(&self, other: &OutcomeDistribution) -> f64 {
        self.aligned(other).map(|(p, q)| (p - q).abs()).sum::<f64>() / 2.0
    }

    /// Classical (Bhattacharyya) fidelity `(Σ √(p(x) q(x)))²` to another
    /// distribution. Equals 1 exactly when the distributions coincide.
    ///
    /// # Panics
    ///
    /// Panics if the bit counts differ.
    pub fn fidelity(&self, other: &OutcomeDistribution) -> f64 {
        let sum: f64 = self.aligned(other).map(|(p, q)| (p * q).sqrt()).sum();
        sum * sum
    }

    /// The probabilities `(p(x), q(x))` of every outcome recorded in either
    /// distribution (0 where absent), from one merge walk over the two
    /// sorted maps.
    fn aligned<'a>(
        &'a self,
        other: &'a OutcomeDistribution,
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        assert_eq!(self.n_bits, other.n_bits, "bit count mismatch");
        let mut left = self.probabilities.iter().peekable();
        let mut right = other.probabilities.iter().peekable();
        std::iter::from_fn(move || match (left.peek(), right.peek()) {
            (Some((a, _)), Some((b, _))) => Some(match a.cmp(b) {
                Ordering::Less => (*left.next()?.1, 0.0),
                Ordering::Greater => (0.0, *right.next()?.1),
                Ordering::Equal => (*left.next()?.1, *right.next()?.1),
            }),
            (Some(_), None) => Some((*left.next()?.1, 0.0)),
            (None, Some(_)) => Some((0.0, *right.next()?.1)),
            (None, None) => None,
        })
    }

    /// Returns `true` when the distributions agree within `tolerance` in
    /// total-variation distance.
    pub fn approx_eq(&self, other: &OutcomeDistribution, tolerance: f64) -> bool {
        self.n_bits == other.n_bits && self.total_variation_distance(other) <= tolerance
    }
}

impl fmt::Display for OutcomeDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "distribution over {} bits:", self.n_bits)?;
        for (outcome, p) in self.iter() {
            // Print the most-significant classical bit first.
            let bits: String = outcome
                .iter()
                .rev()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            writeln!(f, "  |{bits}⟩: {p:.6}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pattern: &str) -> Vec<bool> {
        // Little-endian input: first character is classical bit 0.
        pattern.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn add_and_query() {
        let mut d = OutcomeDistribution::new(3);
        d.add(bits("100"), 0.25);
        d.add(bits("011"), 0.75);
        assert_eq!(d.len(), 2);
        assert!((d.probability(&bits("100")) - 0.25).abs() < 1e-12);
        assert!((d.probability(&bits("000")) - 0.0).abs() < 1e-12);
        assert!((d.total() - 1.0).abs() < 1e-12);
        // index 1 = bit 0 set.
        assert!((d.probability_of_index(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn adding_zero_probability_is_ignored() {
        let mut d = OutcomeDistribution::new(2);
        d.add(bits("00"), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn accumulates_repeated_outcomes() {
        let mut d = OutcomeDistribution::new(1);
        d.add(bits("1"), 0.25);
        d.add(bits("1"), 0.25);
        assert!((d.probability(&bits("1")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_scales_to_one() {
        let mut d = OutcomeDistribution::new(1);
        d.add(bits("0"), 0.2);
        d.add(bits("1"), 0.6);
        d.normalize();
        assert!((d.total() - 1.0).abs() < 1e-12);
        assert!((d.probability(&bits("1")) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn metrics_on_identical_distributions() {
        let mut d = OutcomeDistribution::new(2);
        d.add(bits("00"), 0.5);
        d.add(bits("11"), 0.5);
        assert!(d.total_variation_distance(&d.clone()) < 1e-12);
        assert!((d.fidelity(&d.clone()) - 1.0).abs() < 1e-12);
        assert!(d.approx_eq(&d.clone(), 1e-9));
    }

    #[test]
    fn metrics_on_disjoint_distributions() {
        let mut a = OutcomeDistribution::new(1);
        a.add(bits("0"), 1.0);
        let mut b = OutcomeDistribution::new(1);
        b.add(bits("1"), 1.0);
        assert!((a.total_variation_distance(&b) - 1.0).abs() < 1e-12);
        assert!(a.fidelity(&b) < 1e-12);
        assert!(!a.approx_eq(&b, 0.5));
    }

    #[test]
    fn metrics_on_partially_overlapping_distributions() {
        // Outcomes only in `a`, only in `b` and in both, interleaved in key
        // order so the merge walk takes every branch.
        let mut a = OutcomeDistribution::new(2);
        a.add(bits("00"), 0.5);
        a.add(bits("10"), 0.25);
        a.add(bits("11"), 0.25);
        let mut b = OutcomeDistribution::new(2);
        b.add(bits("01"), 0.5);
        b.add(bits("10"), 0.5);
        // ½ (0.5 + 0.5 + 0.25 + 0.25)
        assert!((a.total_variation_distance(&b) - 0.75).abs() < 1e-12);
        assert!((b.total_variation_distance(&a) - 0.75).abs() < 1e-12);
        // (√(0.25 · 0.5))²
        assert!((a.fidelity(&b) - 0.125).abs() < 1e-12);
        assert!((b.fidelity(&a) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_by_probability() {
        let mut d = OutcomeDistribution::new(2);
        d.add(bits("00"), 0.1);
        d.add(bits("10"), 0.6);
        d.add(bits("01"), 0.3);
        let top = d.top_k(2);
        assert_eq!(top[0].0, bits("10"));
        assert_eq!(top[1].0, bits("01"));
        assert_eq!(d.most_probable().unwrap().0, &bits("10"));
    }

    #[test]
    fn display_prints_msb_first() {
        let mut d = OutcomeDistribution::new(3);
        d.add(bits("100"), 1.0); // bit 0 = 1 → printed as |001⟩
        let text = format!("{d}");
        assert!(text.contains("|001⟩"));
    }

    #[test]
    #[should_panic(expected = "outcome length mismatch")]
    fn wrong_length_outcome_panics() {
        let mut d = OutcomeDistribution::new(2);
        d.add(vec![true], 1.0);
    }
}
