//! Integration tests of the portfolio engine and the batch driver.

use algorithms::{bv, ghz, qft, qpe};
use portfolio::batch::{manifest_from_dir, run_batch, BatchOptions, Manifest, PairSpec};
use portfolio::{applicable_schemes, verify_portfolio, PortfolioConfig, Scheme};
use qcec::{Equivalence, Strategy};
use std::path::PathBuf;

fn paper_qpe_pair() -> (circuit::QuantumCircuit, circuit::QuantumCircuit) {
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    (qpe::qpe_static(phi, 3, true), qpe::iqpe_dynamic(phi, 3))
}

#[test]
fn equivalent_dynamic_pair_verifies_regardless_of_winner() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    for _ in 0..4 {
        let result = verify_portfolio(&static_qpe, &iqpe, &PortfolioConfig::default());
        assert!(
            result.verdict.considered_equivalent(),
            "verdict {:?} via {:?}",
            result.verdict,
            result.winner
        );
        assert!(result.winner.is_some());
        // The tiny-instance fast path stops at the first conclusive scheme.
        assert!(!result.schemes.is_empty() && result.schemes.len() <= 4);
        // Whatever scheme won, the verdict must be a conclusive one.
        assert!(matches!(
            result.verdict,
            Equivalence::Equivalent | Equivalence::EquivalentUpToGlobalPhase
        ));
    }
}

#[test]
fn winning_scheme_reports_memory_telemetry() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let result = verify_portfolio(&static_qpe, &iqpe, &PortfolioConfig::default());
    let winner = result.winner.expect("paper pair verifies");
    let report = result
        .schemes
        .iter()
        .find(|r| r.scheme == winner)
        .expect("winner has a report");
    assert!(report.gc_runs.is_some(), "winner should carry GC telemetry");
    let rate = report
        .cache_hit_rate
        .expect("winner should carry a compute-table hit rate");
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
}

#[test]
fn expired_deadline_stops_every_scheme() {
    // An already-expired deadline must not crash the race: every scheme
    // stops inside decision-diagram allocation and reports the deadline as
    // its failure, leaving no verdict.
    let n = 10;
    let config = PortfolioConfig {
        deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let left = qft::qft_static(n, None, true);
    let right = qft::qft_dynamic(n);
    let started = std::time::Instant::now();
    let result = verify_portfolio(&left, &right, &config);
    assert_eq!(result.verdict, Equivalence::NoInformation);
    assert!(result.schemes.iter().all(|r| r.verdict.is_none()));
    assert!(result
        .schemes
        .iter()
        .any(|r| r.error.as_deref().is_some_and(|e| e.contains("deadline"))));
    assert!(started.elapsed() < std::time::Duration::from_secs(10));
}

#[test]
fn non_equivalent_pair_is_refuted() {
    let static_bv = bv::bv_static(&[true, false, true], true);
    let dynamic_bv = bv::bv_dynamic(&[true, true, true]);
    let result = verify_portfolio(&static_bv, &dynamic_bv, &PortfolioConfig::default());
    assert_eq!(result.verdict, Equivalence::NotEquivalent);
    assert!(result.winner.is_some());
}

#[test]
fn global_phase_pair_is_detected_on_static_portfolio() {
    let mut left = circuit::QuantumCircuit::new(1, 0);
    left.rz(0.9, 0);
    let mut right = circuit::QuantumCircuit::new(1, 0);
    right.p(0.9, 0);
    let result = verify_portfolio(&left, &right, &PortfolioConfig::default());
    assert_eq!(result.verdict, Equivalence::EquivalentUpToGlobalPhase);
    assert!(matches!(result.winner, Some(Scheme::Functional(_))));
}

#[test]
fn scheme_selection_follows_circuit_kind() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let dynamic_schemes = applicable_schemes(&static_qpe, &iqpe);
    assert!(dynamic_schemes.contains(&Scheme::FixedInput));
    assert!(dynamic_schemes
        .iter()
        .all(|s| !matches!(s, Scheme::Functional(_) | Scheme::Simulative)));

    let a = ghz::ghz(3, false);
    let static_schemes = applicable_schemes(&a, &a);
    assert!(static_schemes.contains(&Scheme::Simulative));
    assert!(static_schemes.contains(&Scheme::Functional(Strategy::Proportional)));
}

#[test]
fn losing_schemes_are_cancelled_instead_of_running_to_completion() {
    // Dynamic QFT at n = 16: the fixed-input extraction finishes in a
    // fraction of the reconstruction+miter flow's time (~4x measured), so
    // the portfolio should crown it and cancel the three functional
    // schedules mid-miter.
    let n = 16;
    let static_qft = qft::qft_static(n, None, true);
    let dynamic_qft = qft::qft_dynamic(n);
    let result = verify_portfolio(&static_qft, &dynamic_qft, &PortfolioConfig::default());
    assert!(result.verdict.considered_equivalent());
    assert!(result.winner.is_some());
    let cancelled: Vec<_> = result.schemes.iter().filter(|s| s.cancelled).collect();
    assert!(
        !cancelled.is_empty(),
        "expected at least one cancelled loser, got {:#?}",
        result.schemes
    );
    for loser in &cancelled {
        assert!(loser.verdict.is_none());
        assert!(loser.error.is_none());
    }
    // Losers unwind promptly: the whole race ends close to the winner's
    // finish, far below the sequential sum of all four schemes.
    assert!(
        result.total_time < result.time_to_verdict * 3 + std::time::Duration::from_secs(1),
        "losers kept running: total {:?} vs verdict at {:?}",
        result.total_time,
        result.time_to_verdict
    );
}

#[test]
fn deliberately_slow_scheme_exits_early_on_cancellation() {
    // Run the extraction of a 2^18-leaf dense distribution alone — tens of
    // seconds if left to finish — and cancel it from a watchdog thread
    // after 100 ms. The scheme must exit early and flag the cancellation.
    let n = 18;
    let static_qft = qft::qft_static(n, None, true);
    let dynamic_qft = qft::qft_dynamic(n);
    let config = PortfolioConfig::default();
    let budget = qcec::Budget::unlimited();
    let token = budget.cancel_token().clone();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(100));
        token.cancel();
    });
    let started = std::time::Instant::now();
    let report = portfolio::run_scheme(
        Scheme::FixedInput,
        &static_qft,
        &dynamic_qft,
        &config,
        &budget,
    );
    watchdog.join().unwrap();
    assert!(report.cancelled, "expected cancellation, got {report:?}");
    assert!(report.verdict.is_none());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "cancelled extraction still took {:?}",
        started.elapsed()
    );
}

#[test]
fn portfolio_verdict_matches_single_schemes_on_the_paper_example() {
    // Acceptance criterion: the portfolio agrees with every single scheme on
    // the 3-bit IQPE-vs-QPE pair, and its wall time tracks the fastest
    // scheme (generous 10x bound to stay robust on loaded CI machines —
    // the sequential sum of all schemes is what it must *not* approach).
    let (static_qpe, iqpe) = paper_qpe_pair();
    let config = PortfolioConfig::default();
    let portfolio = verify_portfolio(&static_qpe, &iqpe, &config);

    let functional =
        qcec::verify_dynamic_functional(&static_qpe, &iqpe, &config.configuration).unwrap();
    let fixed = qcec::verify_fixed_input(
        &static_qpe,
        &iqpe,
        &config.configuration,
        &config.extraction,
    )
    .unwrap();
    assert_eq!(
        portfolio.verdict.considered_equivalent(),
        functional.equivalence.considered_equivalent()
    );
    assert_eq!(
        portfolio.verdict.considered_equivalent(),
        fixed.equivalence.considered_equivalent()
    );

    let fastest = portfolio
        .schemes
        .iter()
        .filter(|s| s.verdict.is_some())
        .map(|s| s.duration)
        .min()
        .expect("at least one scheme finished");
    assert!(
        portfolio.time_to_verdict <= fastest * 10 + std::time::Duration::from_millis(250),
        "time to verdict {:?} vs fastest scheme {:?}",
        portfolio.time_to_verdict,
        fastest
    );
}

#[test]
fn functional_refutation_outranks_fixed_input_equivalence() {
    // ghz vs. ghz_log_depth (measured, 10 qubits → non-tiny race path):
    // identical all-zeros-input distribution but different unitaries. The
    // fixed-input scheme says Equivalent, the functional schemes say
    // NotEquivalent. Whichever wins the race, the invariant is: if any
    // functional scheme finished with a refutation, the refutation is the
    // final verdict — the weaker fixed-input claim never overrides it.
    for _ in 0..8 {
        let left = ghz::ghz(10, true);
        let right = ghz::ghz_log_depth(10, true);
        let result = verify_portfolio(&left, &right, &PortfolioConfig::default());
        let functional_refuted = result.schemes.iter().any(|r| {
            r.scheme != Scheme::FixedInput && r.verdict == Some(Equivalence::NotEquivalent)
        });
        if functional_refuted {
            assert_eq!(
                result.verdict,
                Equivalence::NotEquivalent,
                "fixed-input equivalence overrode a functional refutation: {:#?}",
                result.schemes
            );
        } else {
            // Only the fixed-input scheme finished: its (weaker, documented)
            // verdict stands.
            assert_eq!(result.winner, Some(Scheme::FixedInput));
            assert_eq!(result.verdict, Equivalence::Equivalent);
        }
    }
}

#[test]
fn explicit_scheme_list_is_respected() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let config = PortfolioConfig {
        schemes: vec![Scheme::FixedInput],
        ..Default::default()
    };
    let result = verify_portfolio(&static_qpe, &iqpe, &config);
    assert_eq!(result.schemes.len(), 1);
    assert_eq!(result.winner, Some(Scheme::FixedInput));
    assert_eq!(result.verdict, Equivalence::Equivalent);
}

// ---------------------------------------------------------------------------
// Batch driver
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("portfolio-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn batch_driver_reports_a_three_pair_manifest() {
    let dir = temp_dir("manifest");
    let (static_qpe, iqpe) = paper_qpe_pair();
    let pairs = [
        ("qpe_ok", static_qpe, iqpe),
        (
            "bv_bad",
            bv::bv_static(&[true, false, true], true),
            bv::bv_dynamic(&[false, false, true]),
        ),
        ("ghz_ok", ghz::ghz(4, true), ghz::ghz(4, true)),
    ];
    let mut manifest = Manifest {
        pairs: Vec::new(),
        chains: None,
    };
    for (name, left, right) in &pairs {
        let left_path = dir.join(format!("{name}.left.qasm"));
        let right_path = dir.join(format!("{name}.right.qasm"));
        std::fs::write(&left_path, circuit::qasm::to_qasm(left)).unwrap();
        std::fs::write(&right_path, circuit::qasm::to_qasm(right)).unwrap();
        manifest.pairs.push(PairSpec {
            name: Some(name.to_string()),
            left: left_path.to_string_lossy().into_owned(),
            right: right_path.to_string_lossy().into_owned(),
            qubits: None,
        });
    }

    let report = run_batch(&manifest, &BatchOptions::default());
    assert_eq!(report.pairs_total, 3);
    assert_eq!(report.pairs_equivalent, 2);
    assert_eq!(report.pairs_failed, 0);

    // The JSON report is machine-readable and names the winning scheme.
    let json = serde_json::to_string_pretty(&report).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    let rendered_pairs = value.get("pairs").unwrap().as_array().unwrap();
    assert_eq!(rendered_pairs.len(), 3);
    for pair in rendered_pairs {
        assert!(pair.get("name").unwrap().as_str().is_some());
        assert!(pair.get("winner").is_some());
        assert!(pair.get("time_to_verdict").unwrap().as_f64().is_some());
        assert!(!pair.get("schemes").unwrap().as_array().unwrap().is_empty());
        // The retired shared_store block still renders, always `null`.
        assert!(matches!(
            pair.get("shared_store"),
            Some(serde_json::Value::Null)
        ));
    }
    let bv_pair = rendered_pairs
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("bv_bad"))
        .unwrap();
    assert_eq!(
        bv_pair.get("verdict").unwrap().as_str(),
        Some("NotEquivalent")
    );
    assert_eq!(
        bv_pair.get("considered_equivalent").unwrap().as_bool(),
        Some(false)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn directory_mode_pairs_files_by_stem() {
    let dir = temp_dir("dirmode");
    let a = ghz::ghz(3, true);
    std::fs::write(dir.join("ghz.left.qasm"), circuit::qasm::to_qasm(&a)).unwrap();
    std::fs::write(dir.join("ghz.right.qasm"), circuit::qasm::to_qasm(&a)).unwrap();
    let hidden = [true, true, false];
    std::fs::write(
        dir.join("bv_a.qasm"),
        circuit::qasm::to_qasm(&bv::bv_static(&hidden, true)),
    )
    .unwrap();
    std::fs::write(
        dir.join("bv_b.qasm"),
        circuit::qasm::to_qasm(&bv::bv_dynamic(&hidden)),
    )
    .unwrap();

    let manifest = manifest_from_dir(&dir).unwrap();
    assert_eq!(manifest.pairs.len(), 2);
    assert_eq!(manifest.pairs[0].name.as_deref(), Some("bv"));
    assert_eq!(manifest.pairs[1].name.as_deref(), Some("ghz"));

    let report = run_batch(&manifest, &BatchOptions::default());
    assert_eq!(report.pairs_equivalent, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_reports_unreadable_pairs_instead_of_dying() {
    let manifest = Manifest {
        pairs: vec![PairSpec {
            name: Some("missing".into()),
            left: "/nonexistent/left.qasm".into(),
            right: "/nonexistent/right.qasm".into(),
            qubits: None,
        }],
        chains: None,
    };
    let report = run_batch(&manifest, &BatchOptions::default());
    assert_eq!(report.pairs_total, 1);
    assert_eq!(report.pairs_failed, 1);
    assert!(report.pairs[0].error.is_some());
    assert_eq!(report.pairs[0].verdict, Equivalence::NoInformation);
}
