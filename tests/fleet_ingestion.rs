//! Fleet ingestion end to end: the outlier gate's statistics, batch
//! independence, duplicate and tamper routing, and torn-tail repair on the
//! append path. Sizes are kept small so the file runs quickly in a debug
//! build.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hiermeans_obs::history::{mad, median, median_of_sorted};
use hiermeans_obs::Collector;
use hiermeans_store::{
    fsck, ingest_lines, synthetic_fleet, Disposition, IngestConfig, IngestReport, RejectReason,
    ResultStore,
};
use proptest::prelude::*;

/// A store in a directory unique per process, thread and call, removed on
/// drop.
struct Scratch {
    dir: PathBuf,
    store: ResultStore,
}

impl Scratch {
    fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hm_fleet_ingestion_{}_{:?}_{}",
            std::process::id(),
            std::thread::current().id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = ResultStore::new(dir.join("fleet.jsonl"));
        Scratch { dir, store }
    }

    fn bytes(&self) -> Vec<u8> {
        std::fs::read(self.store.path()).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fleet_lines(n: usize, seed: u64) -> Vec<String> {
    synthetic_fleet(n, seed)
        .unwrap()
        .iter()
        .map(|s| serde_json::to_string(s).unwrap())
        .collect()
}

fn ingest(store: &ResultStore, lines: &[String]) -> IngestReport {
    let text = lines.join("\n");
    ingest_lines(
        store,
        &text,
        &IngestConfig::default(),
        &Collector::disabled(),
    )
    .unwrap()
}

fn reasons(report: &IngestReport) -> Vec<Option<RejectReason>> {
    report
        .outcomes
        .iter()
        .map(|o| match &o.disposition {
            Disposition::Accepted { .. } => None,
            Disposition::Quarantined { reason } => Some(reason.clone()),
        })
        .collect()
}

#[test]
fn outlier_quarantine_carries_the_history_median_and_mad_bits() {
    let scratch = Scratch::new();
    let fleet = synthetic_fleet(41, 11).unwrap();
    let clean: Vec<String> = fleet[..40]
        .iter()
        .map(|s| serde_json::to_string(s).unwrap())
        .collect();
    assert_eq!(ingest(&scratch.store, &clean).accepted(), 40);

    let mut bad = fleet[40].clone();
    bad.speedups[3] *= 20.0;
    bad.seal().unwrap();
    let report = ingest(&scratch.store, &[serde_json::to_string(&bad).unwrap()]);

    // The gate's reference rule: clone-and-sort median and MAD over the
    // workload's accepted values, in store order.
    let series: Vec<f64> = scratch
        .store
        .load()
        .unwrap()
        .records
        .iter()
        .filter(|s| s.suite == bad.suite)
        .map(|s| s.speedups[3])
        .collect();
    assert_eq!(series.len(), 40);
    match &reasons(&report)[..] {
        [Some(RejectReason::Outlier {
            workload,
            value,
            median: med,
            mad: spread,
        })] => {
            assert_eq!(workload, &bad.workloads[3]);
            assert_eq!(value.to_bits(), bad.speedups[3].to_bits());
            assert_eq!(med.to_bits(), median(&series).to_bits());
            assert_eq!(spread.to_bits(), mad(&series).to_bits());
        }
        other => panic!("expected one outlier rejection, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_median_is_bitwise_the_clone_and_sort_median(
        picks in prop::collection::vec(0usize..6, 1..40),
        pool in prop::collection::vec(1e-3..1e3f64, 6),
    ) {
        // Drawing from a small pool makes ties common.
        let values: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(median_of_sorted(&sorted).to_bits(), median(&values).to_bits());
    }
}

#[test]
fn one_batch_and_many_batches_write_identical_stores() {
    let mut lines = fleet_lines(90, 5);
    // A duplicate and an outlier, so batch boundaries cut across rejects.
    lines.insert(60, lines[20].clone());
    let mut bad = synthetic_fleet(91, 5).unwrap()[90].clone();
    bad.speedups[0] *= 20.0;
    bad.seal().unwrap();
    lines.insert(75, serde_json::to_string(&bad).unwrap());

    let whole = Scratch::new();
    let whole_reasons = reasons(&ingest(&whole.store, &lines));
    let batched = Scratch::new();
    let mut batched_reasons = Vec::new();
    for chunk in lines.chunks(13) {
        batched_reasons.extend(reasons(&ingest(&batched.store, chunk)));
    }

    assert_eq!(whole_reasons, batched_reasons);
    assert_eq!(whole_reasons.iter().filter(|r| r.is_some()).count(), 2);
    assert_eq!(whole.bytes(), batched.bytes());
    assert_eq!(
        std::fs::read(whole.store.quarantine_path()).unwrap(),
        std::fs::read(batched.store.quarantine_path()).unwrap()
    );
}

#[test]
fn resubmitting_a_store_quarantines_every_line_as_a_duplicate() {
    let scratch = Scratch::new();
    let lines = fleet_lines(30, 9);
    assert_eq!(ingest(&scratch.store, &lines).accepted(), 30);
    let before = scratch.bytes();

    let again = ingest(&scratch.store, &lines);
    assert_eq!(again.accepted(), 0);
    assert!(reasons(&again)
        .iter()
        .all(|r| matches!(r, Some(RejectReason::Duplicate { .. }))));
    assert_eq!(scratch.bytes(), before);
    assert_eq!(scratch.store.load_quarantine().unwrap().records.len(), 30);
}

#[test]
fn post_seal_edit_is_quarantined_verbatim() {
    let scratch = Scratch::new();
    let mut edited = synthetic_fleet(1, 4).unwrap().remove(0);
    edited.speedups[1] *= 1.01;
    let line = serde_json::to_string(&edited).unwrap();

    let report = ingest(&scratch.store, std::slice::from_ref(&line));
    assert!(matches!(
        &reasons(&report)[..],
        [Some(RejectReason::ChecksumMismatch { .. })]
    ));
    let quarantine = scratch.store.load_quarantine().unwrap().records;
    assert_eq!(quarantine.len(), 1);
    assert_eq!(quarantine[0].raw, line);
    assert!(scratch.store.load().unwrap().records.is_empty());
}

#[test]
fn append_to_a_clean_store_keeps_every_existing_byte() {
    let scratch = Scratch::new();
    let lines = fleet_lines(12, 2);
    ingest(&scratch.store, &lines[..11]);
    let before = scratch.bytes();
    assert_eq!(before.last(), Some(&b'\n'));

    let lock = scratch.store.lock_exclusive().unwrap();
    assert_eq!(scratch.store.append_line(&lock, &lines[11]).unwrap(), None);
    drop(lock);

    let after = scratch.bytes();
    assert_eq!(&after[..before.len()], &before[..]);
    assert_eq!(
        &after[before.len()..],
        format!("{}\n", lines[11]).as_bytes()
    );
}

#[test]
fn append_after_a_torn_tail_drops_only_the_fragment() {
    let scratch = Scratch::new();
    let lines = fleet_lines(3, 8);
    let clean = format!("{}\n{}\n", lines[0], lines[1]);
    let fragment = &lines[2][..lines[2].len() / 2];
    std::fs::write(scratch.store.path(), format!("{clean}{fragment}")).unwrap();

    let lock = scratch.store.lock_exclusive().unwrap();
    let note = scratch.store.append_line(&lock, &lines[2]).unwrap();
    drop(lock);

    let note = note.expect("a torn tail is repaired and narrated");
    assert!(
        note.contains(&format!("({} bytes)", fragment.len())),
        "{note}"
    );
    assert_eq!(
        scratch.bytes(),
        format!("{clean}{}\n", lines[2]).into_bytes()
    );
}

#[test]
fn ingest_after_a_crash_fragment_repairs_it_and_fsck_is_clean() {
    let scratch = Scratch::new();
    let lines = fleet_lines(20, 13);
    ingest(&scratch.store, &lines[..10]);
    let mut torn = scratch.bytes();
    torn.extend_from_slice(&lines[10].as_bytes()[..25]);
    std::fs::write(scratch.store.path(), &torn).unwrap();

    let report = ingest(&scratch.store, &lines[10..]);
    assert_eq!(report.accepted(), 10);
    assert_eq!(report.repairs.len(), 1);

    let check = fsck(&scratch.store, false, &Collector::disabled()).unwrap();
    assert!(check.clean(), "{check:?}");
    assert_eq!(check.valid, 20);
}
