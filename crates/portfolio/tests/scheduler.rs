//! Integration tests of the adaptive scheduler, the telemetry store and the
//! predicted launch path.

use algorithms::{ghz, qft, qpe};
use portfolio::scheduler::{plan, SchedulePolicy};
use portfolio::telemetry::{PairFeatures, SchemeStats, TelemetryStore};
use portfolio::{verify_portfolio, verify_portfolio_recorded, PortfolioConfig, Scheme};
use qcec::Strategy;
use std::sync::Mutex;
use std::time::Duration;

fn paper_qpe_pair() -> (circuit::QuantumCircuit, circuit::QuantumCircuit) {
    let phi = 3.0 * std::f64::consts::PI / 8.0;
    (qpe::qpe_static(phi, 3, true), qpe::iqpe_dynamic(phi, 3))
}

/// Seeds `store` so that `winner` looks like a fast, reliable winner for the
/// bucket of (`left`, `right`) while every other applicable scheme looks
/// slow and losing.
fn seed_winner(
    store: &mut TelemetryStore,
    left: &circuit::QuantumCircuit,
    right: &circuit::QuantumCircuit,
    winner: Scheme,
) {
    let bucket = PairFeatures::extract(left, right).bucket();
    for scheme in portfolio::applicable_schemes(left, right) {
        let mut stats = SchemeStats {
            launches: 10,
            total_secs: 5.0,
            ..Default::default()
        };
        if scheme == winner {
            stats.wins = 10;
            stats.conclusive = 10;
            stats.win_secs = 0.1;
            stats.peak_nodes_max = 1000;
            stats.peak_nodes_sum = 9000;
            stats.peak_samples = 10;
        }
        store
            .schemes
            .insert(TelemetryStore::key(scheme, &bucket), stats);
    }
    store.races += 10;
}

#[test]
fn predicted_top_k_ordering_is_deterministic_given_seeded_stats() {
    // Non-tiny static pair => threaded plan.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 2,
            escalate_after: Duration::from_secs(1),
        },
        ..Default::default()
    };
    for _ in 0..3 {
        let plan = plan(&left, &right, &config, Some(&store));
        assert!(plan.predicted);
        assert!(!plan.sequential);
        assert_eq!(plan.primary.len(), 2);
        // The seeded winner ranks first; the rest of the ranking is the
        // deterministic score/cost/rank tie-break. Every seeded loser has
        // identical stats, so the second slot goes to the cheapest by
        // static cost profile: the proportional miter schedule.
        assert_eq!(plan.primary[0].scheme, Scheme::Simulative);
        assert_eq!(
            plan.primary[1].scheme,
            Scheme::Functional(Strategy::Proportional)
        );
        // The reserve escalates in race order.
        assert_eq!(
            plan.reserve
                .iter()
                .map(|s| s.scheme)
                .collect::<Vec<Scheme>>(),
            vec![
                Scheme::Functional(Strategy::Aligned),
                Scheme::Functional(Strategy::OneToOne),
                Scheme::Functional(Strategy::Reference),
            ]
        );
        assert_eq!(plan.escalate_after, Some(Duration::from_secs(1)));
    }
}

#[test]
fn predicted_winner_carries_a_gc_hint_from_peak_telemetry() {
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let plan = plan(&left, &right, &config, Some(&store));
    // peak_nodes_max = 1000 → doubled and rounded to a power of two is
    // 2048, clamped up to the 2^14 floor.
    assert_eq!(plan.primary[0].gc_hint, Some(1 << 14));
    // Losing schemes were seeded without peak samples: no hint.
    assert_eq!(plan.primary[1].gc_hint, None);
}

#[test]
fn dense_hint_fires_only_on_near_identity_buckets_with_small_peaks() {
    // Identical circuits bucket as near-identity, and the seeded winner's
    // peak telemetry (max 1000 nodes) is under the dense-loss ceiling:
    // dense apply is predicted to be a loss and hinted off.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let near_plan = plan(&left, &right, &config, Some(&store));
    assert_eq!(near_plan.primary[0].dense_hint, Some(0));
    // Losing schemes were seeded without peak samples: no evidence, no hint.
    assert_eq!(near_plan.primary[1].dense_hint, None);

    // Same bucket, but the winner's miters peaked above the ceiling — the
    // pair built dense blocks worth vectorizing, so the hint must not fire.
    let bucket = PairFeatures::extract(&left, &right).bucket();
    assert!(bucket.near_identity, "identical circuits are near-identity");
    let key = TelemetryStore::key(Scheme::Simulative, &bucket);
    store.schemes.get_mut(&key).unwrap().peak_nodes_max =
        portfolio::scheduler::DENSE_LOSS_PEAK_CEILING + 1;
    let big_plan = plan(&left, &right, &config, Some(&store));
    assert_eq!(big_plan.primary[0].dense_hint, None);

    // A pair whose bucket is *not* near-identity never gets the hint, no
    // matter how small its peaks measured.
    let far_left = qft::qft_static(10, None, true);
    let far_right = ghz::ghz(10, false);
    let far_bucket = PairFeatures::extract(&far_left, &far_right).bucket();
    assert!(!far_bucket.near_identity);
    let mut far_store = TelemetryStore::new();
    seed_winner(&mut far_store, &far_left, &far_right, Scheme::Simulative);
    let far_plan = plan(&far_left, &far_right, &config, Some(&far_store));
    for scheduled in far_plan.primary.iter().chain(far_plan.reserve.iter()) {
        assert_eq!(scheduled.dense_hint, None, "{:?}", scheduled.scheme);
    }
}

#[test]
fn empty_stats_degrade_predicted_to_exact_race_plan() {
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let race_config = PortfolioConfig::default();
    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let empty = TelemetryStore::new();
    let race_plan = plan(&left, &right, &race_config, None);
    for cold in [
        plan(&left, &right, &predicted_config, None),
        plan(&left, &right, &predicted_config, Some(&empty)),
    ] {
        assert_eq!(cold, race_plan, "cold predicted must plan exactly a race");
        assert!(!cold.predicted);
        assert!(cold.reserve.is_empty());
        assert_eq!(cold.escalate_after, None);
    }
    // And the race plan itself preserves the historical launch order.
    assert_eq!(
        race_plan
            .primary
            .iter()
            .map(|s| s.scheme)
            .collect::<Vec<Scheme>>(),
        vec![
            Scheme::FixedInput,
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::DynamicFunctional(Strategy::OneToOne),
            Scheme::DynamicFunctional(Strategy::Reference),
        ]
    );
}

#[test]
fn tiny_pairs_get_a_sequential_plan_under_both_policies() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let race_plan = plan(&static_qpe, &iqpe, &PortfolioConfig::default(), None);
    assert!(race_plan.sequential);
    assert_eq!(
        race_plan
            .primary
            .iter()
            .map(|s| s.scheme)
            .collect::<Vec<Scheme>>(),
        vec![
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::FixedInput,
            Scheme::DynamicFunctional(Strategy::OneToOne),
            Scheme::DynamicFunctional(Strategy::Reference),
        ]
    );

    // With stats, prediction reorders the sequential attempts but keeps the
    // sequential shape (no threads for a tiny pair).
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &static_qpe, &iqpe, Scheme::FixedInput);
    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let predicted_plan = plan(&static_qpe, &iqpe, &predicted_config, Some(&store));
    assert!(predicted_plan.sequential);
    assert!(predicted_plan.predicted);
    assert_eq!(predicted_plan.primary[0].scheme, Scheme::FixedInput);
    assert!(predicted_plan.reserve.is_empty());
}

#[test]
fn predicted_primary_wave_always_contains_a_proving_scheme() {
    // Seed the stats so the *simulative* check is the sole predicted winner
    // of a 10-qubit equivalent pair. Simulative agreement is advisory
    // (`ProbablyEquivalent`) — a primary wave of just the simulative check
    // could never settle the pair — so the scheduler must extend the wave
    // with the best proving scheme, and the run concludes without ever
    // escalating.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::Simulative);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 1,
            escalate_after: Duration::from_secs(60),
        },
        ..Default::default()
    };
    let wave = plan(&left, &right, &config, Some(&store));
    assert_eq!(
        wave.primary.iter().map(|s| s.scheme).collect::<Vec<_>>(),
        vec![
            Scheme::Simulative,
            Scheme::Functional(Strategy::Proportional)
        ],
        "the wave must be extended with a proving scheme"
    );

    let telemetry = Mutex::new(store);
    let result = verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    assert!(result.predicted);
    assert!(
        !result.escalated(),
        "the extended primary wave concludes without escalation: {:#?}",
        result.schemes
    );
    assert_eq!(result.verdict, qcec::Equivalence::Equivalent);
    assert!(matches!(result.winner, Some(Scheme::Functional(_))));
    assert_eq!(result.schemes.len(), 2, "only the primary wave launched");
}

#[test]
fn escalation_reaches_a_conclusive_verdict_when_the_prediction_errors() {
    // Seed the stats so the fixed-input extraction is the sole predicted
    // winner, then give the run a 1-leaf extraction budget: the predicted
    // scheme fails deterministically, the primary wave drains without a
    // verdict, and the engine must escalate to the reconstruction schemes
    // (which ignore the leaf budget) to still prove equivalence.
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::FixedInput);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 1,
            escalate_after: Duration::from_secs(60),
        },
        leaf_limit: Some(1),
        ..Default::default()
    };
    let telemetry = Mutex::new(store);
    let result = verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    assert!(result.predicted);
    assert!(
        result.escalated(),
        "a failed primary wave must escalate: {:#?}",
        result.schemes
    );
    // The primary scheme failed fast (leaf budget), so the wave *drained*
    // inconclusive well before the 60s stall deadline — the recorded
    // reason must say so, not blame a stall.
    assert_eq!(
        result.escalation,
        Some(portfolio::EscalationReason::InconclusiveDrain),
        "a drained primary wave is an inconclusive-drain escalation"
    );
    assert!(result.verdict.considered_equivalent());
    assert!(matches!(result.winner, Some(Scheme::DynamicFunctional(_))));
    let fixed = result
        .schemes
        .iter()
        .find(|r| r.scheme == Scheme::FixedInput)
        .expect("the predicted scheme launched first");
    assert!(
        fixed.error.is_some(),
        "the leaf budget must trip: {fixed:?}"
    );
    assert!(
        result.schemes.len() > 1,
        "escalation launches the reserve wave"
    );
}

#[test]
fn stalled_primary_wave_escalates_on_the_deadline() {
    // A zero escalation deadline forces the stall path: whatever the
    // predicted scheme does, the reserve launches (almost) immediately and
    // the verdict must still be conclusive and correct.
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &left, &right, Scheme::FixedInput);
    let config = PortfolioConfig {
        policy: SchedulePolicy::Predicted {
            k: 1,
            escalate_after: Duration::ZERO,
        },
        ..Default::default()
    };
    let telemetry = Mutex::new(store);
    let result = verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    assert!(result.predicted);
    assert!(
        result.verdict.considered_equivalent(),
        "verdict {:?} via {:?}",
        result.verdict,
        result.winner
    );
}

#[test]
fn predicted_matches_race_verdicts_and_launches_fewer_schemes() {
    // The acceptance pairs: the paper's 3-bit QPE/IQPE example and a
    // 10-qubit dynamic QFT. Race first (recording telemetry), then verify
    // again predictively: verdicts must match and the threaded pair must
    // launch strictly fewer schemes.
    let (static_qpe, iqpe) = paper_qpe_pair();
    let qft_left = qft::qft_static(10, None, true);
    let qft_right = qft::qft_dynamic(10);

    let telemetry = Mutex::new(TelemetryStore::new());
    let race_config = PortfolioConfig::default();
    let race_qpe = verify_portfolio_recorded(&static_qpe, &iqpe, &race_config, Some(&telemetry));
    let race_qft = verify_portfolio_recorded(&qft_left, &qft_right, &race_config, Some(&telemetry));
    assert!(!race_qpe.predicted && !race_qft.predicted);

    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let predicted_qpe =
        verify_portfolio_recorded(&static_qpe, &iqpe, &predicted_config, Some(&telemetry));
    let predicted_qft =
        verify_portfolio_recorded(&qft_left, &qft_right, &predicted_config, Some(&telemetry));

    assert_eq!(
        predicted_qpe.verdict.considered_equivalent(),
        race_qpe.verdict.considered_equivalent()
    );
    assert_eq!(
        predicted_qft.verdict.considered_equivalent(),
        race_qft.verdict.considered_equivalent()
    );
    assert!(predicted_qft.predicted, "warm stats must steer the plan");
    if !predicted_qft.escalated() {
        assert!(
            predicted_qft.schemes.len() < race_qft.schemes.len(),
            "prediction should launch fewer schemes: {} vs {}",
            predicted_qft.schemes.len(),
            race_qft.schemes.len()
        );
    }
}

#[test]
fn stats_files_without_sharing_records_still_load() {
    // Stats files from before per-bucket sharing records have no "sharing"
    // key at all and must keep loading.
    let old_format = r#"{"races": 3, "schemes": []}"#;
    let store = TelemetryStore::from_json(old_format).expect("old stats files must keep loading");
    assert_eq!(store.races, 3);
    assert!(store.is_empty());

    // Files written while shared-store racing existed end with a "sharing"
    // block of per-bucket payoff records. Such a file must load, plan
    // exactly like the same file without the block, and lose the block on
    // the next save.
    let left = ghz::ghz(10, false);
    let right = ghz::ghz(10, false);
    let mut seeded = TelemetryStore::new();
    seed_winner(&mut seeded, &left, &right, Scheme::Simulative);
    let without_block = seeded.to_json();
    let bucket = PairFeatures::extract(&left, &right).bucket().to_string();
    let mut fields = match serde_json::from_str::<serde_json::Value>(&without_block) {
        Ok(serde_json::Value::Object(fields)) => fields,
        other => panic!("stats file is not an object: {other:?}"),
    };
    let record = |hit_rate: f64| {
        serde_json::Value::Object(vec![
            ("races".to_string(), serde_json::Value::Number(4.0)),
            (
                "hit_rate_sum".to_string(),
                serde_json::Value::Number(hit_rate),
            ),
            (
                "contention_secs_sum".to_string(),
                serde_json::Value::Number(0.02),
            ),
            ("race_secs_sum".to_string(), serde_json::Value::Number(4.0)),
        ])
    };
    fields.push((
        "sharing".to_string(),
        serde_json::Value::Object(vec![
            (bucket, record(0.28)),
            ("dynamic-w4".to_string(), record(2.0)),
        ]),
    ));
    let with_block = serde_json::to_string_pretty(&serde_json::Value::Object(fields)).unwrap();
    assert!(with_block.contains("\"hit_rate_sum\""), "{with_block}");

    let loaded = TelemetryStore::from_json(&with_block).expect("a sharing block must not fail");
    let plain = TelemetryStore::from_json(&without_block).expect("round trip");
    assert_eq!(loaded.races, plain.races);
    assert_eq!(loaded.schemes.len(), plain.schemes.len());
    let predicted = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let with_plan = plan(&left, &right, &predicted, Some(&loaded));
    assert!(with_plan.predicted, "the seeded stats must steer the plan");
    assert_eq!(with_plan, plan(&left, &right, &predicted, Some(&plain)));

    let path = std::env::temp_dir().join(format!("sharing-block-{}.json", std::process::id()));
    loaded.save(&path).expect("save stats");
    let saved = std::fs::read_to_string(&path).expect("read saved stats");
    let _ = std::fs::remove_file(&path);
    assert!(
        !saved.contains("sharing"),
        "saving must drop the block: {saved}"
    );
    assert!(!saved.contains("hit_rate_sum"), "{saved}");
}

#[test]
fn telemetry_round_trips_through_save_load_merge() {
    let left = qft::qft_static(10, None, true);
    let right = qft::qft_dynamic(10);
    let telemetry = Mutex::new(TelemetryStore::new());
    let config = PortfolioConfig::default();
    verify_portfolio_recorded(&left, &right, &config, Some(&telemetry));
    let store = telemetry.into_inner().unwrap();
    assert!(!store.is_empty());
    assert_eq!(store.races, 1);

    let path = std::env::temp_dir().join(format!("scheduler-stats-{}.json", std::process::id()));
    store.save(&path).expect("save stats");
    let loaded = TelemetryStore::load(&path).expect("load stats");
    assert_eq!(loaded.races, store.races);
    assert_eq!(loaded.schemes.len(), store.schemes.len());
    for (key, stats) in &store.schemes {
        let reloaded = loaded.schemes.get(key).expect("key survives round trip");
        assert_eq!(reloaded.launches, stats.launches);
        assert_eq!(reloaded.wins, stats.wins);
        assert_eq!(reloaded.peak_nodes_max, stats.peak_nodes_max);
        assert!((reloaded.total_secs - stats.total_secs).abs() < 1e-9);
    }

    // Merging the store into itself doubles every counter.
    let mut merged = loaded.clone();
    merged.merge(&loaded);
    assert_eq!(merged.races, 2 * loaded.races);
    for (key, stats) in &merged.schemes {
        assert_eq!(stats.launches, 2 * loaded.schemes[key].launches);
    }

    // A missing file loads as an empty store (the cold-start contract).
    let _ = std::fs::remove_file(&path);
    let missing = TelemetryStore::load(&path).expect("missing file is not an error");
    assert!(missing.is_empty());
}

#[test]
fn explicit_scheme_lists_bypass_the_scheduler() {
    let (static_qpe, iqpe) = paper_qpe_pair();
    let mut store = TelemetryStore::new();
    seed_winner(&mut store, &static_qpe, &iqpe, Scheme::FixedInput);
    let config = PortfolioConfig {
        schemes: vec![Scheme::DynamicFunctional(Strategy::Proportional)],
        policy: SchedulePolicy::predicted(),
        ..Default::default()
    };
    let explicit = plan(&static_qpe, &iqpe, &config, Some(&store));
    assert!(!explicit.predicted);
    assert!(!explicit.sequential);
    assert_eq!(explicit.primary.len(), 1);
    assert_eq!(
        explicit.primary[0].scheme,
        Scheme::DynamicFunctional(Strategy::Proportional)
    );

    // And the engine still honours it end to end.
    let result = verify_portfolio(&static_qpe, &iqpe, &config);
    assert_eq!(result.schemes.len(), 1);
    assert!(result.verdict.considered_equivalent());
}
