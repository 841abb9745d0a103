//! Portfolio speedup on QPE/IQPE instances.
//!
//! Compares the wall time of the parallel portfolio against each single
//! scheme run alone, on the paper's hardest family (phase estimation, static
//! vs. iterative-dynamic). The portfolio should track the fastest scheme per
//! instance — that is the whole point of racing them — while a fixed single
//! scheme is sometimes the slow one.
//!
//! The `portfolio_scheduler` group compares the telemetry-driven
//! *predicted* launch policy against racing everything on a QFT/QPE
//! workload and records the comparison (wall times, scheme launches,
//! verdicts) in `BENCH_scheduler.json`. It doubles as the CI scheduler
//! smoke: with cold stats the predicted policy must degrade to exact race
//! parity, and with stats warmed by one pass over the same workload it must
//! launch strictly fewer schemes with identical verdicts.

use bench::{build_instance, min_wall_time, Family};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dd::Budget;
use portfolio::telemetry::TelemetryStore;
use portfolio::{
    run_scheme, verify_portfolio, verify_portfolio_recorded, PortfolioConfig, SchedulePolicy,
    Scheme,
};
use qcec::Strategy;
use std::sync::Mutex;

fn bench_portfolio_vs_single_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio");
    group.sample_size(10);
    for n in [7usize, 9, 11] {
        let instance = build_instance(Family::Qpe, n);
        let static_circuit = &instance.static_circuit;
        let dynamic_circuit = &instance.dynamic_circuit;
        let config = PortfolioConfig::default();

        group.bench_with_input(BenchmarkId::new("race", n), &n, |b, _| {
            b.iter(|| verify_portfolio(static_circuit, dynamic_circuit, &config))
        });
        for scheme in [
            Scheme::DynamicFunctional(Strategy::Proportional),
            Scheme::DynamicFunctional(Strategy::Reference),
            Scheme::FixedInput,
        ] {
            group.bench_with_input(BenchmarkId::new(scheme.name(), n), &n, |b, _| {
                b.iter(|| {
                    run_scheme(
                        scheme,
                        static_circuit,
                        dynamic_circuit,
                        &config,
                        &Budget::unlimited(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    // Pair-level fan-out: a three-pair QPE workload raced concurrently, the
    // shape the batch driver produces (file I/O excluded — circuits are
    // prebuilt).
    let mut group = c.benchmark_group("portfolio_batch");
    group.sample_size(10);
    let instances: Vec<_> = [7usize, 8, 9]
        .iter()
        .map(|&n| build_instance(Family::Qpe, n))
        .collect();
    let config = PortfolioConfig::default();
    group.bench_with_input(BenchmarkId::new("qpe_three_pairs", "7-9"), &(), |b, _| {
        b.iter(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = instances
                    .iter()
                    .map(|instance| {
                        let config = &config;
                        scope.spawn(move || {
                            verify_portfolio(
                                &instance.static_circuit,
                                &instance.dynamic_circuit,
                                config,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("portfolio worker panicked"))
                    .collect::<Vec<_>>()
            })
        })
    });
    group.finish();
}

/// Mirrors the vendored criterion's CLI filter for the *bodies* of benches
/// with side effects (instrumented comparison runs, `BENCH_*.json` writes):
/// criterion only filters the registered timing loops, so without this a
/// `cargo bench --bench portfolio -- portfolio_scheduler` run would still
/// execute every other group's comparison work and rewrite its checked-in
/// JSON with timing noise.
fn group_selected(name: &str) -> bool {
    match std::env::args().skip(1).find(|arg| !arg.starts_with('-')) {
        Some(filter) => name.contains(filter.as_str()),
        None => true,
    }
}

fn bench_predicted_vs_race(c: &mut Criterion) {
    if !group_selected("portfolio_scheduler") {
        return;
    }
    // The acceptance workload: non-tiny QFT and QPE instances (tiny pairs
    // take the sequential plan, which already stops at the first conclusive
    // scheme — launch counts only differ on the threaded path).
    let instances: Vec<_> = [(Family::Qpe, 7), (Family::Qpe, 9), (Family::Qft, 10)]
        .iter()
        .map(|&(family, n)| build_instance(family, n))
        .collect();
    let race_config = PortfolioConfig::default();
    let predicted_config = PortfolioConfig {
        policy: SchedulePolicy::predicted(),
        ..PortfolioConfig::default()
    };

    // Phase 1 — cold stats: the predicted policy must degrade to exact
    // race-everything behaviour (same verdicts, same launch counts, no
    // prediction flag). Each pair gets a *fresh* empty store for the cold
    // check (the feature buckets are deliberately coarse, so recording one
    // pair can legitimately warm another's bucket); the race pass records
    // into the store the warm phase uses.
    let warm_stats = Mutex::new(TelemetryStore::new());
    for instance in &instances {
        let race = verify_portfolio_recorded(
            &instance.static_circuit,
            &instance.dynamic_circuit,
            &race_config,
            Some(&warm_stats),
        );
        let fresh = Mutex::new(TelemetryStore::new());
        let cold = verify_portfolio_recorded(
            &instance.static_circuit,
            &instance.dynamic_circuit,
            &predicted_config,
            Some(&fresh),
        );
        assert!(
            !cold.predicted,
            "{}/{}: cold stats must not steer the plan",
            instance.family.name(),
            instance.n
        );
        assert_eq!(
            cold.verdict.considered_equivalent(),
            race.verdict.considered_equivalent(),
            "{}/{}: cold predicted changed the verdict",
            instance.family.name(),
            instance.n
        );
        assert_eq!(
            cold.schemes.len(),
            race.schemes.len(),
            "{}/{}: cold predicted changed the launch count",
            instance.family.name(),
            instance.n
        );
    }

    // Phase 2 — the cold pass above already warmed the store (one recorded
    // race per pair). Re-verify predictively: identical verdicts, strictly
    // fewer scheme launches across the workload.
    let mut rows = Vec::new();
    let mut race_launches_total = 0usize;
    let mut predicted_launches_total = 0usize;
    for instance in &instances {
        let static_circuit = &instance.static_circuit;
        let dynamic_circuit = &instance.dynamic_circuit;
        let race = verify_portfolio(static_circuit, dynamic_circuit, &race_config);
        let predicted = verify_portfolio_recorded(
            static_circuit,
            dynamic_circuit,
            &predicted_config,
            Some(&warm_stats),
        );
        assert!(
            predicted.predicted,
            "{}/{}: warm stats must steer the plan",
            instance.family.name(),
            instance.n
        );
        assert_eq!(
            predicted.verdict.considered_equivalent(),
            race.verdict.considered_equivalent(),
            "{}/{}: prediction changed the verdict",
            instance.family.name(),
            instance.n
        );
        race_launches_total += race.schemes.len();
        predicted_launches_total += predicted.schemes.len();

        let race_secs = min_wall_time(3, || {
            verify_portfolio(static_circuit, dynamic_circuit, &race_config)
        })
        .as_secs_f64();
        let predicted_secs = min_wall_time(3, || {
            verify_portfolio_recorded(
                static_circuit,
                dynamic_circuit,
                &predicted_config,
                Some(&warm_stats),
            )
        })
        .as_secs_f64();
        println!(
            "portfolio_scheduler/{}/{}: predicted {:.3}ms ({} launches{}) vs race {:.3}ms ({} \
             launches), winner {}",
            instance.family.name(),
            instance.n,
            predicted_secs * 1e3,
            predicted.schemes.len(),
            match predicted.escalation {
                Some(reason) => format!(", escalated: {reason}"),
                None => String::new(),
            },
            race_secs * 1e3,
            race.schemes.len(),
            predicted.winner.map(|s| s.name()).unwrap_or("-"),
        );
        rows.push(format!(
            "    {{ \"family\": \"{}\", \"n\": {}, \"race_secs\": {race_secs:.6}, \
             \"predicted_secs\": {predicted_secs:.6}, \"race_launches\": {}, \
             \"predicted_launches\": {}, \"escalation\": {}, \"verdict_equivalent\": {}, \
             \"winner\": \"{}\" }}",
            instance.family.name(),
            instance.n,
            race.schemes.len(),
            predicted.schemes.len(),
            predicted
                .escalation
                .map(|reason| format!("\"{reason}\""))
                .unwrap_or_else(|| "null".to_string()),
            predicted.verdict.considered_equivalent(),
            predicted.winner.map(|s| s.name()).unwrap_or("-"),
        ));
    }
    assert!(
        predicted_launches_total < race_launches_total,
        "warm prediction must launch strictly fewer schemes: {predicted_launches_total} vs \
         {race_launches_total}"
    );

    let json = format!(
        "{{\n  \"bench\": \"portfolio_scheduler\",\n  \"description\": \"telemetry-predicted \
         top-k launches vs race-everything on QFT/QPE pairs (min of 3 runs; stats warmed by one \
         recorded race per pair)\",\n  \"caveats\": [\n    \"small n: three pairs on one \
         machine — the launch-count saving generalises, the wall-time ratios may not\",\n    \
         \"stats are warmed by exactly one recorded race per pair; a long-lived store sees \
         noisier history and predicts worse\",\n    \"escalation reasons (stall vs \
         inconclusive-drain) depend on host scheduling and can flip between runs under load\"\n  \
         ],\n  \"race_launches_total\": {race_launches_total},\n  \
         \"predicted_launches_total\": {predicted_launches_total},\n  \"instances\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scheduler.json");
    if let Err(error) = std::fs::write(path, &json) {
        eprintln!("portfolio_scheduler: cannot write {path}: {error}");
    } else {
        println!("portfolio_scheduler: wrote {path}");
    }

    // Criterion timings for the grep-friendly log.
    let mut group = c.benchmark_group("portfolio_scheduler");
    group.sample_size(10);
    for (label, config) in [("race", &race_config), ("predicted", &predicted_config)] {
        let instance = &instances[1]; // QPE 9
        let static_circuit = &instance.static_circuit;
        let dynamic_circuit = &instance.dynamic_circuit;
        group.bench_with_input(BenchmarkId::new(label, instance.n), &(), |b, _| {
            b.iter(|| {
                verify_portfolio_recorded(
                    static_circuit,
                    dynamic_circuit,
                    config,
                    Some(&warm_stats),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_portfolio_vs_single_schemes,
    bench_batch_throughput,
    bench_predicted_vs_race
);
criterion_main!(benches);
