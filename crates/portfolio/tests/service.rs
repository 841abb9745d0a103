//! Integration tests of the verification service core: admission control,
//! cancellation-on-disconnect and the persisted telemetry store.

use portfolio::service::{RejectReason, Request, ServiceConfig, Source, VerificationService};
use portfolio::TelemetryStore;
use std::path::PathBuf;
use std::time::Duration;

fn inline_pair(n: usize) -> (String, String) {
    (
        circuit::qasm::to_qasm(&algorithms::qft::qft_static(n, None, true)),
        circuit::qasm::to_qasm(&algorithms::qft::qft_dynamic(n)),
    )
}

fn request(n: usize, name: &str) -> Request {
    let (left, right) = inline_pair(n);
    Request {
        name: Some(name.to_string()),
        left: Source::Inline(left),
        right: Source::Inline(right),
        deadline: None,
        node_limit: None,
        width_hint: Some(n),
    }
}

/// A heavy enough pair that a race cannot finish before the test cancels
/// it, but which unwinds quickly once the token trips.
const HEAVY: usize = 18;
/// A light pair for tests that want completions, not longevity.
const LIGHT: usize = 6;

fn config(workers: usize, max_queue: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        max_queue,
        ..ServiceConfig::default()
    }
}

#[test]
fn dropped_handle_cancels_the_inflight_race() {
    let service = VerificationService::start(config(1, 4));
    let handle = service.submit(request(HEAVY, "disconnect")).unwrap();
    let token = handle.cancel_token().clone();
    // Give the worker a moment to dispatch so the cancel lands mid-race at
    // least some of the time (the queued-cancel path is tested separately).
    std::thread::sleep(Duration::from_millis(50));
    assert!(!token.is_cancelled());
    drop(handle); // client disconnects
    assert!(
        token.is_cancelled(),
        "dropping the handle must trip the token"
    );

    // The cancelled race must unwind promptly — not run to completion,
    // which for a QFT-18 race would take far longer than this timeout.
    assert!(
        service.wait_idle(Duration::from_secs(60)),
        "cancelled race did not unwind in time"
    );
    let stats = service.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.inflight, 0);
    service.drain();
}

#[test]
fn explicit_cancel_is_reported_in_the_outcome() {
    let service = VerificationService::start(config(1, 4));
    let handle = service.submit(request(HEAVY, "cancel-me")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    handle.cancel();
    let outcome = handle.wait();
    assert!(outcome.cancelled);
    assert!(
        !outcome.report.considered_equivalent,
        "a cancelled race must not claim equivalence"
    );
    service.drain();
}

#[test]
fn requests_cancelled_while_queued_never_dispatch() {
    let service = VerificationService::start(config(1, 4));
    // Occupy the single worker...
    let blocker = service.submit(request(HEAVY, "blocker")).unwrap();
    // ...queue a second request and kill it before it can dispatch.
    let queued = service.submit(request(HEAVY, "queued")).unwrap();
    let queued_token = queued.cancel_token().clone();
    drop(queued);
    assert!(queued_token.is_cancelled());
    blocker.cancel();
    let blocked_outcome = blocker.wait();
    assert!(blocked_outcome.cancelled);
    assert!(service.wait_idle(Duration::from_secs(60)));
    let stats = service.stats();
    assert_eq!(stats.completed, 2);
    service.drain();
}

#[test]
fn admission_control_rejects_when_saturated_and_after_drain() {
    let service = VerificationService::start(config(1, 0));
    let inflight = service.submit(request(HEAVY, "occupant")).unwrap();
    // Capacity is workers + max_queue = 1: the next submit must bounce.
    let rejection = service.submit(request(LIGHT, "overflow"));
    match rejection {
        Err(RejectReason::Saturated { capacity, .. }) => assert_eq!(capacity, 1),
        other => panic!("expected Saturated, got {other:?}"),
    }
    assert_eq!(service.stats().rejected, 1);

    inflight.cancel();
    let _ = inflight.wait();
    service.drain();
    match service.submit(request(LIGHT, "late")) {
        Err(RejectReason::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
}

/// A stats-file path unique to this test process and `tag`, removed first.
fn stats_path(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("service-stats-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn with_stats(path: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        stats: Some(path.to_path_buf()),
        ..config(1, 8)
    }
}

#[test]
fn completed_requests_fold_telemetry() {
    let path = stats_path("fold");
    let service = VerificationService::start(with_stats(&path));
    let first = service.submit(request(LIGHT, "a")).unwrap().wait();
    assert!(first.report.considered_equivalent);
    assert!(!first.cancelled);
    let second = service.submit(request(LIGHT, "b")).unwrap().wait();
    // The retired warm-store fields keep their constant values.
    assert!(!second.report.warm_store);
    assert!(second.report.shared_store.is_none());
    let stats = service.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.warm_checkouts, 0);
    assert!(
        stats.telemetry_races >= 2,
        "each completed pair folds its races into the telemetry store"
    );
    // The per-request metrics delta rides the outcome.
    assert!(second.metrics.get("counters").is_some());
    service.drain();
    let folded = TelemetryStore::load(&path).expect("drain saves the stats file");
    let _ = std::fs::remove_file(&path);
    assert!(folded.races >= 2);
}

#[test]
fn without_a_stats_file_nothing_is_recorded() {
    let service = VerificationService::start(config(1, 8));
    let outcome = service.submit(request(LIGHT, "unrecorded")).unwrap().wait();
    assert!(outcome.report.considered_equivalent);
    assert!(!outcome.report.predicted);
    assert_eq!(service.stats().telemetry_races, 0);
    service.drain();
}

#[test]
fn a_warm_stats_file_makes_the_next_service_predict() {
    // A missing file is a cold start: the first service races and saves
    // what it learned; a second service over the same path plans from it.
    let path = stats_path("warm");
    let cold = VerificationService::start(with_stats(&path));
    let first = cold.submit(request(LIGHT, "cold")).unwrap().wait();
    assert!(!first.report.predicted, "a missing file must plan a race");
    cold.drain();
    assert!(path.exists(), "drain must save the stats file");

    let warm = VerificationService::start(with_stats(&path));
    let second = warm.submit(request(LIGHT, "warm")).unwrap().wait();
    warm.drain();
    let _ = std::fs::remove_file(&path);
    assert!(
        second.report.predicted,
        "the saved stats must steer the plan"
    );
    assert_eq!(
        second.report.verdict, first.report.verdict,
        "prediction must not change the verdict"
    );
}

#[test]
fn a_damaged_stats_file_is_never_overwritten() {
    let path = stats_path("damaged");
    let damaged = "{ this is not a stats file";
    std::fs::write(&path, damaged).unwrap();
    let service = VerificationService::start(with_stats(&path));
    let outcome = service.submit(request(LIGHT, "damaged")).unwrap().wait();
    assert!(
        outcome.report.considered_equivalent,
        "the service runs cold"
    );
    assert!(!outcome.report.predicted);
    service.drain();
    let after = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(after, damaged, "drain must not save over a damaged file");
}
