//! The ingestion guard pipeline: every submission runs the gauntlet, every
//! failure is a typed quarantine entry, and the batch never fails because
//! one record did.
//!
//! Guard order (each guard sees only records the previous ones passed):
//!
//! 1. **parse** — the line must be a JSON [`Submission`]
//!    ([`RejectReason::Malformed`]);
//! 2. **schema** — `schema_version` must not be from the future
//!    ([`RejectReason::SchemaFromFuture`]);
//! 3. **checksum** — the stamped seal must match the content
//!    ([`RejectReason::ChecksumMismatch`]);
//! 4. **shape** — workloads/speedups/vectors lengths must agree and be
//!    non-empty ([`RejectReason::InvalidShape`]), speedups positive finite
//!    ([`RejectReason::InvalidValue`]);
//! 5. **vectors** — `hiermeans_linalg::validate` must find no fatal issue
//!    ([`RejectReason::InvalidVectors`], with exact cell coordinates);
//! 6. **dedup** — the content hash must be new to the store
//!    ([`RejectReason::Duplicate`]);
//! 7. **outlier** — each speedup must sit within the fleet's per-workload
//!    MAD band once enough of a fleet exists ([`RejectReason::Outlier`]).
//!
//! The order is deliberate: cheap integrity checks run before statistics,
//! and the outlier gate — the only guard that could reject *correct* data —
//! runs last, so a corrupt record is always named by its corruption, not by
//! the absurd values the corruption produced.
//!
//! # Cost
//!
//! A batch loads the store once and keeps every `(suite, workload)` speedup
//! series sorted by `f64::total_cmp`: O(S log S) to build for a store of S
//! values, and one binary-search insert (a memmove) per accepted value.
//! Against a series of m prior values the outlier gate then costs O(1) for
//! the median ([`median_of_sorted`]) and O(log m) for the MAD, with no
//! allocation, so judging a batch of B records of W workloads is
//! O(B·W·log m). The statistics are bitwise those of
//! [`hiermeans_obs::history::median`] and [`hiermeans_obs::history::mad`]
//! over the same values in store order, which clone and sort the whole
//! series on every call.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use hiermeans_linalg::{validate, Matrix};
use hiermeans_obs::history::median_of_sorted;
use hiermeans_obs::{Collector, ResilienceEvent};

use crate::quarantine::{QuarantineRecord, RejectReason};
use crate::store::{ResultStore, StoreLock};
use crate::submission::{Submission, STORE_SCHEMA_VERSION};

/// Tuning for the statistical outlier guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// MAD multiplier: reject when `|v - median| > max(k·MAD,
    /// rel_floor·median)`.
    pub outlier_k: f64,
    /// Relative floor as a fraction of the median — keeps a tight fleet
    /// (MAD ≈ 0) from rejecting ordinary jitter.
    pub outlier_rel_floor: f64,
    /// Minimum prior fleet submissions carrying a workload before its
    /// speedups are judged at all.
    pub outlier_min_prior: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            outlier_k: 8.0,
            outlier_rel_floor: 1.0,
            outlier_min_prior: 5,
        }
    }
}

/// What happened to one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Appended to the store.
    Accepted {
        /// The record's content hash.
        content_hash: String,
    },
    /// Routed to the quarantine sidecar.
    Quarantined {
        /// The typed reason.
        reason: RejectReason,
    },
}

/// One submission's ingest result.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOutcome {
    /// `machine/suite` (or `line N` when the record never parsed).
    pub identity: String,
    /// Accepted or quarantined.
    pub disposition: Disposition,
}

/// One batch's full report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestReport {
    /// Per-submission outcomes, in input order.
    pub outcomes: Vec<IngestOutcome>,
    /// Torn-tail repair notes from the appends, if any.
    pub repairs: Vec<String>,
}

impl IngestReport {
    /// How many submissions were appended.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.disposition, Disposition::Accepted { .. }))
            .count()
    }

    /// How many submissions were quarantined.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.outcomes.len() - self.accepted()
    }

    /// Human-readable per-record lines plus a summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.repairs {
            let _ = writeln!(out, "repair: {note}");
        }
        for o in &self.outcomes {
            match &o.disposition {
                Disposition::Accepted { content_hash } => {
                    let _ = writeln!(out, "accepted   {} [{content_hash}]", o.identity);
                }
                Disposition::Quarantined { reason } => {
                    let _ = writeln!(
                        out,
                        "QUARANTINE {} [{}]: {reason}",
                        o.identity,
                        reason.kind()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "ingest: {} accepted, {} quarantined",
            self.accepted(),
            self.quarantined()
        );
        out
    }
}

/// Fleet state the guards judge against, loaded once per batch under the
/// lock and folded forward as the batch's own acceptances land.
struct FleetState {
    hashes: HashSet<String>,
    /// Per suite, per workload speedup series, each sorted by
    /// `f64::total_cmp` so the outlier gate reads order statistics
    /// directly.
    series: HashMap<String, HashMap<String, Vec<f64>>>,
}

impl FleetState {
    fn from_submissions(subs: &[Submission]) -> FleetState {
        let mut state = FleetState {
            hashes: HashSet::new(),
            series: HashMap::new(),
        };
        for sub in subs {
            state.hashes.insert(sub.content_hash());
            for (w, &v) in sub.workloads.iter().zip(&sub.speedups) {
                state.series_mut(&sub.suite, w).push(v);
            }
        }
        for series in state.series.values_mut().flat_map(HashMap::values_mut) {
            series.sort_by(f64::total_cmp);
        }
        state
    }

    fn absorb(&mut self, sub: &Submission) {
        self.hashes.insert(sub.content_hash());
        for (w, &v) in sub.workloads.iter().zip(&sub.speedups) {
            let series = self.series_mut(&sub.suite, w);
            let at = series.partition_point(|x| x.total_cmp(&v).is_lt());
            series.insert(at, v);
        }
    }

    fn series_mut(&mut self, suite: &str, workload: &str) -> &mut Vec<f64> {
        self.series
            .entry(suite.to_owned())
            .or_default()
            .entry(workload.to_owned())
            .or_default()
    }
}

/// [`hiermeans_obs::history::mad`] of a sorted series whose median is
/// `med`, without allocating.
///
/// The deviations `|x - med|` fall as `x` rises below the median and rise
/// above it, so read outward from the split they form two ascending runs.
/// Each order statistic of their merge is found by a binary search over how
/// many elements the lower run contributes: O(log m).
fn sorted_mad(sorted: &[f64], med: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let (below, above) = sorted.split_at(sorted.partition_point(|&x| x < med));
    let lo = |i: usize| (below[below.len() - 1 - i] - med).abs();
    let hi = |j: usize| (above[j] - med).abs();
    // The k-th smallest deviation (0-based): the largest of the first k + 1
    // in merged order, i of them from `lo` and the rest from `hi`.
    let kth = |k: usize| {
        let take = k + 1;
        let (mut a, mut b) = (take.saturating_sub(above.len()), take.min(below.len()));
        while a < b {
            let i = a + (b - a) / 2;
            if hi(take - i - 1) <= lo(i) {
                b = i;
            } else {
                a = i + 1;
            }
        }
        match (a, take - a) {
            (0, j) => hi(j - 1),
            (i, 0) => lo(i - 1),
            (i, j) => lo(i - 1).max(hi(j - 1)),
        }
    };
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        kth(mid)
    } else {
        (kth(mid - 1) + kth(mid)) / 2.0
    }
}

/// Runs guards 2–7 over one parsed submission. `Ok` carries the content
/// hash to absorb into the fleet state.
fn judge(sub: &Submission, fleet: &FleetState, cfg: &IngestConfig) -> Result<String, RejectReason> {
    if sub.schema_version > STORE_SCHEMA_VERSION {
        return Err(RejectReason::SchemaFromFuture {
            version: sub.schema_version,
            supported: STORE_SCHEMA_VERSION,
        });
    }
    match sub.expected_checksum() {
        Err(e) => {
            return Err(RejectReason::InvalidValue {
                detail: format!("record is unserializable: {e}"),
            })
        }
        Ok(expected) if expected != sub.checksum => {
            return Err(RejectReason::ChecksumMismatch {
                expected,
                found: sub.checksum.clone(),
            })
        }
        Ok(_) => {}
    }
    if sub.workloads.is_empty() {
        return Err(RejectReason::InvalidShape {
            detail: "no workloads".to_owned(),
        });
    }
    if sub.speedups.len() != sub.workloads.len() || sub.vectors.len() != sub.workloads.len() {
        return Err(RejectReason::InvalidShape {
            detail: format!(
                "{} workloads but {} speedups and {} vectors",
                sub.workloads.len(),
                sub.speedups.len(),
                sub.vectors.len()
            ),
        });
    }
    let dim = sub.vectors[0].len();
    if let Some(row) = sub.vectors.iter().position(|r| r.len() != dim) {
        return Err(RejectReason::InvalidShape {
            detail: format!(
                "vector row {row} has {} dimensions, row 0 has {dim}",
                sub.vectors[row].len()
            ),
        });
    }
    for (i, &v) in sub.speedups.iter().enumerate() {
        if !v.is_finite() || v <= 0.0 {
            return Err(RejectReason::InvalidValue {
                detail: format!("speedups[{i}] = {v} (must be positive finite)"),
            });
        }
    }
    let matrix = Matrix::from_rows(&sub.vectors).map_err(|e| RejectReason::InvalidShape {
        detail: format!("vectors do not form a matrix: {e}"),
    })?;
    let report = validate::validate(&matrix);
    if report.has_fatal() {
        return Err(RejectReason::InvalidVectors {
            issues: report
                .issues()
                .iter()
                .filter(|i| i.is_fatal())
                .map(std::string::ToString::to_string)
                .collect(),
        });
    }
    let hash = sub.content_hash();
    if fleet.hashes.contains(&hash) {
        return Err(RejectReason::Duplicate { content_hash: hash });
    }
    let suite_series = fleet.series.get(sub.suite.as_str());
    for (w, &v) in sub.workloads.iter().zip(&sub.speedups) {
        let Some(series) = suite_series.and_then(|s| s.get(w.as_str())) else {
            continue;
        };
        if series.len() < cfg.outlier_min_prior {
            continue;
        }
        let med = median_of_sorted(series);
        let spread = sorted_mad(series, med);
        let margin = (cfg.outlier_k * spread).max(cfg.outlier_rel_floor * med);
        if (v - med).abs() > margin {
            return Err(RejectReason::Outlier {
                workload: w.clone(),
                value: v,
                median: med,
                mad: spread,
            });
        }
    }
    Ok(hash)
}

/// Ingests parsed submissions: locks the store, loads the fleet, judges
/// and appends each record, quarantining rejects. Records a `store`-class
/// [`ResilienceEvent`] for every quarantine and torn-tail repair.
///
/// # Errors
///
/// Infrastructure failures only (I/O, a corrupt mid-file store line);
/// rejected submissions are quarantined, not errors.
pub fn ingest_submissions(
    store: &ResultStore,
    submissions: &[Submission],
    cfg: &IngestConfig,
    collector: &Collector,
) -> Result<IngestReport, String> {
    let lock = store.lock_exclusive()?;
    ingest_locked(store, &lock, submissions, cfg, collector)
}

/// [`ingest_submissions`] under a lock the caller already holds.
fn ingest_locked(
    store: &ResultStore,
    lock: &StoreLock,
    submissions: &[Submission],
    cfg: &IngestConfig,
    collector: &Collector,
) -> Result<IngestReport, String> {
    let scan = store.load()?;
    let mut fleet = FleetState::from_submissions(&scan.records);
    let mut report = IngestReport::default();
    for sub in submissions {
        let identity = sub.identity();
        let disposition = match judge(sub, &fleet, cfg) {
            Ok(content_hash) => {
                let line =
                    serde_json::to_string(sub).map_err(|e| format!("encode submission: {e}"))?;
                if let Some(note) = store.append_line(lock, &line)? {
                    collector.record_resilience(ResilienceEvent::Store {
                        action: "torn_tail_repaired".to_owned(),
                        detail: note.clone(),
                    });
                    report.repairs.push(note);
                }
                fleet.absorb(sub);
                collector.live_ingest(1, 0);
                Disposition::Accepted { content_hash }
            }
            Err(reason) => {
                // Preserve the record verbatim (checksum field included) so
                // quarantine holds exactly what was rejected.
                let raw = serde_json::to_string(sub).unwrap_or_else(|_| identity.clone());
                store.append_quarantine(
                    lock,
                    &QuarantineRecord::new(&sub.machine, &sub.suite, reason.clone(), &raw),
                )?;
                collector.record_resilience(ResilienceEvent::Store {
                    action: "quarantined".to_owned(),
                    detail: format!("{identity}: [{}] {reason}", reason.kind()),
                });
                collector.live_ingest(0, 1);
                Disposition::Quarantined { reason }
            }
        };
        report.outcomes.push(IngestOutcome {
            identity,
            disposition,
        });
    }
    Ok(report)
}

/// Ingests a batch file's text: every non-blank line must be a JSON
/// submission; lines that do not parse are quarantined as
/// [`RejectReason::Malformed`] (a submission *batch* gets no torn-tail
/// leniency — only the store itself earns that).
///
/// # Errors
///
/// Infrastructure failures only.
pub fn ingest_lines(
    store: &ResultStore,
    text: &str,
    cfg: &IngestConfig,
    collector: &Collector,
) -> Result<IngestReport, String> {
    let mut parsed: Vec<Result<Submission, (usize, String, String)>> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Submission>(line) {
            Ok(sub) => parsed.push(Ok(sub)),
            Err(e) => parsed.push(Err((i + 1, line.to_owned(), e.to_string()))),
        }
    }
    // One lock for the whole batch: judge the parseable ones, quarantine
    // the malformed lines, and splice them back into input order.
    let subs: Vec<Submission> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok().cloned())
        .collect();
    let lock = store.lock_exclusive()?;
    let batch = ingest_locked(store, &lock, &subs, cfg, collector)?;
    let mut batch_outcomes = batch.outcomes.into_iter();
    let mut report = IngestReport {
        outcomes: Vec::with_capacity(parsed.len()),
        repairs: batch.repairs,
    };
    for p in parsed {
        match p {
            Ok(_) => {
                if let Some(outcome) = batch_outcomes.next() {
                    report.outcomes.push(outcome);
                }
            }
            Err((line_no, raw, error)) => {
                let reason = RejectReason::Malformed { error };
                store.append_quarantine(
                    &lock,
                    &QuarantineRecord::new("", "", reason.clone(), &raw),
                )?;
                collector.record_resilience(ResilienceEvent::Store {
                    action: "quarantined".to_owned(),
                    detail: format!("line {line_no}: [{}] {reason}", reason.kind()),
                });
                collector.live_ingest(0, 1);
                report.outcomes.push(IngestOutcome {
                    identity: format!("line {line_no}"),
                    disposition: Disposition::Quarantined { reason },
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiermeans_obs::history::{mad, median};
    use proptest::prelude::*;

    fn scratch(name: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("hm_ingest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let store = ResultStore::new(&path);
        for p in [path.clone(), store.quarantine_path(), store.lock_path()] {
            let _ = std::fs::remove_file(p);
        }
        store
    }

    fn submission(machine: &str, speedup: f64) -> Submission {
        Submission::new(
            machine,
            "paper",
            vec!["w1".into(), "w2".into()],
            vec![speedup, speedup * 0.5],
            vec![vec![0.1, 0.2], vec![0.3, 0.4]],
        )
        .sealed()
        .unwrap()
    }

    fn quarantine_kinds(store: &ResultStore) -> Vec<String> {
        store
            .load_quarantine()
            .unwrap()
            .records
            .iter()
            .map(|r| r.reason.kind().to_owned())
            .collect()
    }

    #[test]
    fn clean_batch_is_fully_accepted() {
        let store = scratch("clean.jsonl");
        let subs: Vec<Submission> = (0..4).map(|i| submission(&format!("m{i}"), 2.0)).collect();
        let collector = Collector::enabled();
        let report =
            ingest_submissions(&store, &subs, &IngestConfig::default(), &collector).unwrap();
        assert_eq!(report.accepted(), 4);
        assert_eq!(report.quarantined(), 0);
        assert_eq!(store.load().unwrap().records.len(), 4);
        assert!(collector.resilience_events().is_empty());
    }

    #[test]
    fn checksum_mismatch_is_quarantined_not_fatal() {
        let store = scratch("checksum.jsonl");
        let mut bad = submission("m-bad", 2.0);
        bad.speedups[0] = 3.0; // edit after sealing
        let good = submission("m-good", 2.0);
        let report = ingest_submissions(
            &store,
            &[bad, good],
            &IngestConfig::default(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.quarantined(), 1);
        assert_eq!(quarantine_kinds(&store), vec!["checksum_mismatch"]);
        assert_eq!(store.load().unwrap().records.len(), 1);
    }

    #[test]
    fn schema_from_future_is_quarantined() {
        let store = scratch("future.jsonl");
        let mut sub = submission("m", 2.0);
        sub.schema_version = STORE_SCHEMA_VERSION + 3;
        sub.seal().unwrap(); // sealed correctly, still from the future
        let report = ingest_submissions(
            &store,
            &[sub],
            &IngestConfig::default(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(report.accepted(), 0);
        assert_eq!(quarantine_kinds(&store), vec!["schema_from_future"]);
    }

    #[test]
    fn shape_and_vector_guards_fire_with_coordinates() {
        let store = scratch("shape.jsonl");
        let mut ragged = submission("m-ragged", 2.0);
        ragged.speedups.pop();
        ragged.seal().unwrap();
        let mut nan_vec = submission("m-nan", 2.0);
        nan_vec.vectors[1][0] = f64::NAN;
        // NaN cannot be sealed (canonical JSON refuses it), so this record
        // arrives unsealed — but InvalidValue (unserializable) must name
        // the real problem, not the checksum.
        let mut negative = submission("m-neg", 2.0);
        negative.speedups[1] = -0.5;
        negative.seal().unwrap();
        let report = ingest_submissions(
            &store,
            &[ragged, nan_vec, negative],
            &IngestConfig::default(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(report.accepted(), 0);
        let kinds = quarantine_kinds(&store);
        assert_eq!(
            kinds,
            vec!["invalid_shape", "invalid_value", "invalid_value"]
        );
    }

    #[test]
    fn duplicates_are_quarantined_even_within_a_batch() {
        let store = scratch("dup.jsonl");
        let sub = submission("m", 2.0);
        let report = ingest_submissions(
            &store,
            &[sub.clone(), sub.clone()],
            &IngestConfig::default(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(report.accepted(), 1);
        assert_eq!(quarantine_kinds(&store), vec!["duplicate"]);
        // And across batches.
        let report2 = ingest_submissions(
            &store,
            &[sub],
            &IngestConfig::default(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(report2.accepted(), 0);
    }

    #[test]
    fn outlier_gate_rejects_only_after_enough_fleet() {
        let store = scratch("outlier.jsonl");
        let cfg = IngestConfig::default();
        let collector = Collector::disabled();
        // An absurd value sails through while the fleet is tiny...
        let early =
            ingest_submissions(&store, &[submission("m-early", 500.0)], &cfg, &collector).unwrap();
        assert_eq!(early.accepted(), 1);
        // ...then a fleet of ordinary machines forms...
        let fleet: Vec<Submission> = (0..8)
            .map(|i| submission(&format!("m{i}"), 2.0 + 0.01 * f64::from(i)))
            .collect();
        ingest_submissions(&store, &fleet, &cfg, &collector).unwrap();
        // ...after which the same absurdity is an outlier.
        let late =
            ingest_submissions(&store, &[submission("m-late", 500.0)], &cfg, &collector).unwrap();
        assert_eq!(late.accepted(), 0);
        assert_eq!(quarantine_kinds(&store), vec!["outlier"]);
        // Ordinary jitter still passes.
        let ok = ingest_submissions(&store, &[submission("m-ok", 2.2)], &cfg, &collector).unwrap();
        assert_eq!(ok.accepted(), 1);
    }

    #[test]
    fn ingest_lines_quarantines_malformed_in_input_order() {
        let store = scratch("lines.jsonl");
        let good = serde_json::to_string(&submission("m", 2.0)).unwrap();
        let text = format!("{good}\nnot a record\n");
        let collector = Collector::enabled();
        let report = ingest_lines(&store, &text, &IngestConfig::default(), &collector).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.outcomes[1].identity, "line 2");
        assert_eq!(quarantine_kinds(&store), vec!["malformed"]);
        let events = collector.resilience_events();
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0], ResilienceEvent::Store { action, .. } if action == "quarantined")
        );
        assert!(report.render().contains("1 accepted, 1 quarantined"));
    }

    #[test]
    fn a_batch_holds_the_lock_across_its_malformed_lines() {
        let store = scratch("one_lock.jsonl");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..8 {
                        let mut bad = submission(&format!("t{t}-{i}"), 2.0);
                        bad.speedups[0] = 3.0;
                        let bad = serde_json::to_string(&bad).unwrap();
                        let text = format!("{bad}\nnot a record t{t}-{i}\n");
                        let collector = Collector::disabled();
                        ingest_lines(&store, &text, &IngestConfig::default(), &collector).unwrap();
                    }
                });
            }
        });
        // Each batch's parsed reject and its malformed line land side by
        // side: no other writer's batch gets between them.
        let records = store.load_quarantine().unwrap().records;
        assert_eq!(records.len(), 64);
        for pair in records.chunks(2) {
            let tag = &pair[0].machine;
            assert_eq!(pair[0].reason.kind(), "checksum_mismatch");
            assert_eq!(pair[1].raw, format!("not a record {tag}"));
        }
    }

    fn assert_matches_history(values: &[f64]) {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let med = median_of_sorted(&sorted);
        assert_eq!(
            med.to_bits(),
            median(values).to_bits(),
            "median of {values:?}"
        );
        assert_eq!(
            sorted_mad(&sorted, med).to_bits(),
            mad(values).to_bits(),
            "mad of {values:?}"
        );
    }

    #[test]
    fn sorted_statistics_match_history_on_edge_cases() {
        assert_eq!(sorted_mad(&[], 0.0), 0.0);
        for values in [
            vec![3.0],
            vec![1.0, 3.0],
            vec![5.0, 1.0, 3.0],
            vec![2.0; 7],
            vec![2.0; 8],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![1.0, 1.0, 1.0, 9.0, 1e9],
            vec![1e-300, 1e300, 1e300, 2.5],
            vec![0.1, 0.2, 0.3, 0.30000000000000004, 0.7, 1e6],
        ] {
            assert_matches_history(&values);
        }
    }

    /// Series of every length from 1 up, drawn from a pool of `pool`
    /// mantissas (heavy ties when small) across `2·decades + 1` orders of
    /// magnitude, some with a continuous jitter that breaks the ties.
    fn series() -> impl Strategy<Value = Vec<f64>> {
        (1usize..160, 1u32..12, 0i32..7).prop_flat_map(|(len, pool, decades)| {
            prop::collection::vec((0..pool, -decades..decades + 1, 0u32..4, 0.0..1.0f64), len)
                .prop_map(move |cells| {
                    cells
                        .into_iter()
                        .map(|(m, e, mode, jitter)| {
                            let mantissa = 1.0 + f64::from(m) / f64::from(pool);
                            let mantissa = if mode == 0 {
                                mantissa + jitter
                            } else {
                                mantissa
                            };
                            mantissa * 10f64.powi(e)
                        })
                        .collect()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn sorted_statistics_are_bitwise_history_statistics(values in series()) {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let med = median_of_sorted(&sorted);
            prop_assert_eq!(med.to_bits(), median(&values).to_bits());
            prop_assert_eq!(sorted_mad(&sorted, med).to_bits(), mad(&values).to_bits());
        }

        #[test]
        fn absorbed_series_stay_sorted(values in series()) {
            let subs: Vec<Submission> = values
                .iter()
                .map(|&v| Submission::new("m", "s", vec!["w".into()], vec![v], vec![vec![0.0]]))
                .collect();
            let (head, tail) = subs.split_at(subs.len() / 2);
            let mut state = FleetState::from_submissions(head);
            for sub in tail {
                state.absorb(sub);
            }
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let got: Vec<u64> = state.series["s"]["w"].iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
