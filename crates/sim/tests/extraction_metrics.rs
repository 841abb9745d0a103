//! The extraction's path counters.
//!
//! The `obs` counters are process-wide, so this file holds a single test:
//! no other test of this binary runs alongside it and moves the counts.

use algorithms::qft;
use obs::metrics::{fold, SIM_EXTRACT_COLLAPSES, SIM_EXTRACT_OUTCOMES_READ};
use sim::{extract_distribution, ExtractionConfig};

#[test]
fn counters_show_which_path_the_extraction_took() {
    let config = ExtractionConfig::default();

    // A static measured QFT-10 is read off its final state: no collapse,
    // one outcome read per leaf.
    let before = fold();
    let result = extract_distribution(&qft::qft_static(10, None, true), &config).unwrap();
    let delta = fold().delta_since(&before);
    assert_eq!(delta.get(SIM_EXTRACT_COLLAPSES), 0);
    assert_eq!(delta.get(SIM_EXTRACT_OUTCOMES_READ), 1024);
    assert_eq!(result.leaves, 1024);

    // The dynamic QFT (one working qubit, measured and reset per output
    // bit) branches on its first four measurements — 2 + 4 + 8 + 16
    // collapses — and on the reset after each, whose outcome is certain, so
    // once per branch. Only the final measurement is read.
    let before = fold();
    let result = extract_distribution(&qft::qft_dynamic(5), &config).unwrap();
    let delta = fold().delta_since(&before);
    assert_eq!(delta.get(SIM_EXTRACT_COLLAPSES), 2 * (2 + 4 + 8 + 16));
    assert_eq!(delta.get(SIM_EXTRACT_OUTCOMES_READ), 32);
    assert_eq!(result.leaves, 32);
}
