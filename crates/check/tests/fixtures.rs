//! The seeded-defect fixtures must keep tripping their target rules —
//! these tests are the detector's own regression gate. Every fixture
//! is deterministic: conflicts are defined over per-epoch agent sets,
//! not over the schedule the pool workers happened to produce.

#![allow(clippy::unwrap_used)]

use ecl_check::{fixtures, run_checked, CheckConfig, CheckSession, Rule};
use ecl_gpusim::{Device, DeviceConfig};

#[test]
fn ww_race_fixture_is_detected() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || fixtures::racy_write_write(&device));
    let hits = report.of_rule(Rule::WriteWriteRace);
    assert_eq!(hits.len(), 1, "one folded finding expected: {report:?}");
    let f = hits[0];
    assert_eq!(f.kernel, "fixture.ww-race");
    assert_eq!(f.region.as_deref(), Some("fixture.ww-cells"));
    assert_eq!(f.count, 8, "every one of the 8 cells races once");
    assert!(f.detail.contains("fixture.ww-cells["), "detail names the cell: {}", f.detail);
    assert!(!report.races_clean());
}

#[test]
fn rw_race_fixture_is_detected() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || fixtures::racy_read_write(&device));
    let hits = report.of_rule(Rule::ReadWriteRace);
    assert_eq!(hits.len(), 1, "{report:?}");
    assert_eq!(hits[0].kernel, "fixture.rw-race");
    assert!(report.of_rule(Rule::WriteWriteRace).is_empty(), "single writer: no W/W");
}

#[test]
fn benign_region_suppresses_but_still_counts() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || fixtures::benign_racy_write_write(&device));
    assert!(report.is_clean(), "benign races must not fail the report: {report:?}");
    assert_eq!(report.suppressed.len(), 1);
    let s = &report.suppressed[0];
    assert_eq!(s.rule, Rule::WriteWriteRace);
    assert_eq!(s.region.as_deref(), Some("fixture.benign-cells"));
    assert!(s.suppressed.as_deref().unwrap().contains("last-write-wins"));
}

#[test]
fn over_launch_fixture_is_flagged_and_exact_grid_is_not() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || fixtures::over_launched(&device));
    let hits = report.of_rule(Rule::OverLaunch);
    assert_eq!(hits.len(), 1, "{report:?}");
    assert!(hits[0].detail.contains("1 of 8 blocks"), "{}", hits[0].detail);
    assert!(report.races_clean(), "fixture writes are per-thread exclusive");

    let ((), report) = run_checked(&device, || fixtures::exactly_launched(&device));
    assert!(report.is_clean(), "exactly covered grid must pass: {report:?}");
}

#[test]
fn divergent_sync_fixture_is_flagged_and_uniform_is_not() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || fixtures::divergent_sync(&device));
    let hits = report.of_rule(Rule::DivergentSync);
    assert_eq!(hits.len(), 1, "{report:?}");
    assert_eq!(hits[0].count, 2, "both blocks diverge");
    assert!(hits[0].detail.contains("4 of 8 lanes"), "{}", hits[0].detail);

    let ((), report) = run_checked(&device, || fixtures::uniform_sync(&device));
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn sync_storm_fixture_is_flagged_and_busy_sync_is_not() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || fixtures::sync_storm(&device));
    assert!(report.has(Rule::BlockSyncWaste), "{report:?}");
    let f = &report.of_rule(Rule::BlockSyncWaste)[0];
    // 4 blocks × 50 rounds × 64 lanes = 12800 slots, 200 updates.
    assert!(f.detail.contains("12800 barrier thread-slots"), "{}", f.detail);

    let ((), report) = run_checked(&device, || fixtures::busy_sync(&device));
    assert!(report.is_clean(), "fully utilized barriers must pass: {report:?}");
}

#[test]
fn low_occupancy_fixture_is_flagged_on_rtx4090_shape() {
    let device = Device::new(DeviceConfig::rtx4090());
    let ((), report) = run_checked(&device, || fixtures::low_occupancy(&device));
    let hits = report.of_rule(Rule::Occupancy);
    assert_eq!(hits.len(), 1, "{report:?}");
    assert!(hits[0].detail.contains("block size 1024"), "{}", hits[0].detail);
    assert!(hits[0].detail.contains("67%"), "1536-thread SM → 2/3: {}", hits[0].detail);
    // The same launch on an A100 (2048 threads/SM) is clean — the
    // cross-device Table 6 prediction.
    let device = Device::new(DeviceConfig::a100());
    let ((), report) = run_checked(&device, || fixtures::low_occupancy(&device));
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn findings_become_trace_events() {
    use ecl_trace::ring::{ClockMode, Tracer, TracerConfig};
    use ecl_trace::EventKind;
    use std::sync::Arc;

    let tracer = Arc::new(Tracer::new(TracerConfig {
        slots: 4,
        events_per_slot: 4096,
        clock: ClockMode::Logical,
    }));
    let device = Device::test_small();
    let _traced = device.observe(tracer.clone());
    let session = CheckSession::begin(&device);
    fixtures::racy_write_write(&device);
    let report = session.finish();
    assert!(report.has(Rule::WriteWriteRace));
    let snap = tracer.snapshot();
    let findings: Vec<_> = snap.of_kind(EventKind::CheckFinding).collect();
    assert_eq!(findings.len(), 1, "one event per new finding");
    assert_eq!(findings[0].payload, Rule::WriteWriteRace.raw());
}

#[test]
fn thresholds_are_configurable() {
    let device = Device::test_small();
    // Raise the idle-block floor above the fixture's 7 idle blocks:
    // the same launch passes.
    let session = CheckSession::with_config(
        &device,
        CheckConfig { overlaunch_min_idle_blocks: 100, ..CheckConfig::default() },
    );
    fixtures::over_launched(&device);
    let report = session.finish();
    assert!(!report.has(Rule::OverLaunch), "{report:?}");
}

#[test]
fn session_counters_cover_launches_and_accesses() {
    let device = Device::test_small();
    let ((), report) = run_checked(&device, || {
        fixtures::exactly_launched(&device);
        fixtures::uniform_sync(&device);
    });
    assert_eq!(report.launches, 2);
    assert!(report.accesses >= 16, "16 stores in exactly_launched: {}", report.accesses);
}

/// Two sessions on two devices, open at the same time, each running
/// its kernel while the other runs its own: each report holds its own
/// device's findings and launches only. The threads wait for each
/// other with a timeout, so a second session that cannot open while
/// the first is running fails the test instead of hanging it.
#[test]
fn sessions_on_two_devices_overlap_and_keep_their_own_findings() {
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    const RUNS: u64 = 10;
    const WAIT: Duration = Duration::from_secs(20);
    fn session(kernel: fn(&Device), tx: Sender<()>, rx: Receiver<()>) -> ecl_check::Report {
        let device = Device::test_small();
        let session = CheckSession::begin(&device);
        let _ = tx.send(());
        rx.recv_timeout(WAIT).expect("the other session never opened alongside this one");
        for _ in 0..RUNS {
            kernel(&device);
        }
        let _ = tx.send(());
        rx.recv_timeout(WAIT).expect("the other session never finished its kernels");
        session.finish()
    }

    let (to_racy, racy_rx) = channel();
    let (to_clean, clean_rx) = channel();
    let (racy, clean) = std::thread::scope(|s| {
        let racy = s.spawn(|| session(fixtures::racy_write_write, to_clean, racy_rx));
        let clean = s.spawn(|| session(fixtures::exactly_launched, to_racy, clean_rx));
        (racy.join().expect("racy session"), clean.join().expect("clean session"))
    });

    assert_eq!(racy.launches, RUNS);
    let hits = racy.of_rule(Rule::WriteWriteRace);
    assert_eq!(hits.len(), 1, "{racy:?}");
    assert_eq!(hits[0].kernel, "fixture.ww-race");
    assert_eq!(hits[0].count, 8 * RUNS, "8 racing cells per launch");
    assert_eq!(racy.findings.len(), 1, "only the race: {racy:?}");

    assert_eq!(clean.launches, RUNS);
    assert_eq!(clean.accesses, 16 * RUNS, "16 stores per launch");
    assert!(clean.is_clean() && clean.suppressed.is_empty(), "{clean:?}");
}
