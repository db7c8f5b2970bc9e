//! `fleet`: `synthetic_fleet(1600, seed)` encoded as JSONL with a fixed
//! reject plan and submitted into an empty store in batches of 101 lines.
//! An op is one `repro submit` of a batch: `ingest_lines` (write) followed
//! by `store_cli::rescore` (the incremental query, a read). Each pass over
//! the 16 batches ends with `fsck(repair = false)`.
//!
//! Why: the only workload that touches `store` and `core::fleet`. Writes
//! and reads share the store, so a faster ingest that slows the query
//! shows in the same op. Every ingest reloads the whole store, so batch
//! latency grows across a pass; the op median sits mid-pass.
//!
//! The reject plan, from record 100 on unless noted:
//! * every 20th record is an exact resubmission of the record 50 earlier
//!   (75 duplicates);
//! * every 50th record at offset 7 has one speedup ×20 and is resealed
//!   (30 outliers);
//! * every 50th record at offset 13, from record 0, is edited after
//!   sealing (32 checksum mismatches);
//! * each batch carries one malformed line (16).
//!
//! That is 1,616 lines: 1,463 accepted, 75 duplicate, 30 outlier, 32
//! checksum, 16 malformed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hiermeans_bench::store_cli::{rescore, RescoreOutcome};
use hiermeans_core::fleet::{ClusterModel, FleetScoreboard, DEFAULT_MAX_K};
use hiermeans_obs::Collector;
use hiermeans_store::{
    fsck, ingest_lines, synthetic_fleet, Disposition, IngestConfig, IngestReport, ResultStore,
    StoreLock,
};

use crate::spans::{Tracer, OP};
use crate::{ms_since, stats, tail, Mode, Samples, Workload};

pub const RECORDS: usize = 1600;
pub const BATCH_RECORDS: usize = 100;
/// Planted rejects start at this record (checksum edits excepted).
const PLANT_FROM: usize = 100;
/// Where in each batch the malformed line goes.
const MALFORMED_AT: usize = 37;
/// Appends timed into a copy of the end-of-pass store.
const APPENDS: usize = 16;

/// What the ingest guards must decide for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    Accepted,
    Duplicate,
    Outlier,
    Checksum,
    Malformed,
}

impl Planned {
    /// The matching `RejectReason::kind`, or `accepted`.
    pub fn kind(self) -> &'static str {
        match self {
            Planned::Accepted => "accepted",
            Planned::Duplicate => "duplicate",
            Planned::Outlier => "outlier",
            Planned::Checksum => "checksum_mismatch",
            Planned::Malformed => "malformed",
        }
    }
}

fn kind_of(d: &Disposition) -> &'static str {
    match d {
        Disposition::Accepted { .. } => "accepted",
        Disposition::Quarantined { reason } => reason.kind(),
    }
}

/// The encoded batches and the disposition planned for each line.
#[derive(Debug, Clone)]
pub struct Plan {
    pub batches: Vec<String>,
    pub expected: Vec<Vec<Planned>>,
}

impl Plan {
    /// How many lines are planned to end as `p`.
    pub fn count(&self, p: Planned) -> usize {
        self.expected.iter().flatten().filter(|&&e| e == p).count()
    }
}

/// Builds the reject plan over `synthetic_fleet(RECORDS, seed)`.
pub fn plan(seed: u64) -> Result<Plan, String> {
    let fleet = synthetic_fleet(RECORDS, seed)?;
    let encode = |s: &hiermeans_store::Submission| {
        serde_json::to_string(s).map_err(|e| format!("encoding {}: {e}", s.identity()))
    };
    let mut lines: Vec<(String, Planned)> = Vec::with_capacity(RECORDS);
    for (i, sub) in fleet.iter().enumerate() {
        let planted = i >= PLANT_FROM;
        let line = if planted && i % 20 == 0 {
            (lines[i - 50].0.clone(), Planned::Duplicate)
        } else if planted && i % 50 == 7 {
            let mut s = sub.clone();
            s.speedups[0] *= 20.0;
            s.seal()?;
            (encode(&s)?, Planned::Outlier)
        } else if i % 50 == 13 {
            let mut s = sub.clone();
            s.speedups[1] *= 1.01;
            (encode(&s)?, Planned::Checksum)
        } else {
            (encode(sub)?, Planned::Accepted)
        };
        lines.push(line);
    }
    let mut batches = Vec::new();
    let mut expected = Vec::new();
    for (b, chunk) in lines.chunks(BATCH_RECORDS).enumerate() {
        let mut text = String::new();
        let mut planned = Vec::with_capacity(chunk.len() + 1);
        for (j, (line, p)) in chunk.iter().enumerate() {
            if j == MALFORMED_AT {
                text.push_str(&format!("{{\"schema_version\":1,\"machine\":\"torn-{b}\n"));
                planned.push(Planned::Malformed);
            }
            text.push_str(line);
            text.push('\n');
            planned.push(*p);
        }
        batches.push(text);
        expected.push(planned);
    }
    Ok(Plan { batches, expected })
}

/// End-of-pass timings and counts from a replayed pass.
#[derive(Debug, Default)]
struct PassStats {
    store_bytes: u64,
    accepted: usize,
    quarantined: [usize; 4],
}

pub struct Fleet {
    plan: Plan,
    dir: PathBuf,
    last: PassStats,
}

impl Fleet {
    /// A fresh, empty store named `name` for one pass.
    fn fresh_store(&self, name: &str) -> Result<ResultStore, String> {
        let dir = self.dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ResultStore::new(dir.join("fleet.jsonl")))
    }

    fn check_batch(
        &self,
        b: usize,
        report: Result<IngestReport, String>,
        query: Result<RescoreOutcome, String>,
        accepted_so_far: &mut usize,
    ) -> Result<FleetScoreboard, String> {
        let report = report.map_err(|e| format!("fleet ingest batch {b}: {e}"))?;
        let got: Vec<&str> = report
            .outcomes
            .iter()
            .map(|o| kind_of(&o.disposition))
            .collect();
        let want: Vec<&str> = self.plan.expected[b].iter().map(|p| p.kind()).collect();
        if got != want {
            return Err(format!(
                "fleet batch {b}: dispositions differ from the plan"
            ));
        }
        *accepted_so_far += report.accepted();
        let query = query.map_err(|e| format!("fleet query after batch {b}: {e}"))?;
        if query.board.len() != *accepted_so_far || !query.skipped.is_empty() {
            return Err(format!(
                "fleet query after batch {b}: {} machines scored, {} accepted",
                query.board.len(),
                accepted_so_far
            ));
        }
        Ok(query.board)
    }

    /// After a pass: `fsck` is clean, and the incrementally maintained
    /// scoreboard equals a fresh full fold of every accepted record. The
    /// end-of-pass calls run under `tr`'s spans.
    fn check_pass(
        &self,
        store: &ResultStore,
        board: Option<FleetScoreboard>,
        accepted: usize,
        tr: &Tracer,
        samples: &mut Samples,
    ) -> Result<(), String> {
        let t = Instant::now();
        let report = tr.span("store.fsck", || fsck(store, false, &Collector::disabled()))?;
        samples
            .extra
            .entry("fsck_ms")
            .or_default()
            .push(ms_since(t));
        if !report.clean() || report.valid != accepted {
            return Err(format!(
                "fleet fsck: {} problems, {} valid lines, {accepted} accepted",
                report.problems.len(),
                report.valid
            ));
        }
        let records = tr.span("store.load", || store.load())?.records;
        let anchor = records.first().ok_or("fleet: empty store after a pass")?;
        let model = tr
            .span("fleet.model", || {
                ClusterModel::from_anchor(
                    &anchor.suite,
                    &anchor.workloads,
                    &anchor.machine,
                    &anchor.vectors,
                    DEFAULT_MAX_K,
                )
            })
            .map_err(|e| format!("fleet model: {e}"))?;
        let mut fresh = FleetScoreboard::new(model);
        tr.span("fleet.fold", || {
            records
                .iter()
                .try_for_each(|s| fresh.fold(&s.machine, &s.workloads, &s.speedups).map(drop))
        })
        .map_err(|e| format!("fleet fold: {e}"))?;
        if board.as_ref() != Some(&fresh) {
            return Err("fleet: incremental rescore differs from a fresh full fold".to_owned());
        }
        Ok(())
    }

    /// `append_line` timed into a copy of the end-of-pass store.
    fn time_appends(&self, tr: &Tracer, store: &ResultStore) -> Result<(), String> {
        let copy = ResultStore::new(self.dir.join("append-copy.jsonl"));
        std::fs::copy(store.path(), copy.path()).map_err(|e| format!("copying store: {e}"))?;
        let lines: Vec<&str> = self.plan.batches[0].lines().take(APPENDS).collect();
        let lock: StoreLock = copy.lock_exclusive()?;
        for line in lines {
            tr.span("store.append", || copy.append_line(&lock, line))?;
        }
        drop(lock);
        for p in [copy.path().to_path_buf(), copy.lock_path()] {
            std::fs::remove_file(&p).map_err(|e| format!("removing {}: {e}", p.display()))?;
        }
        Ok(())
    }
}

impl Workload for Fleet {
    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        Ok(Fleet {
            plan: plan(seed)?,
            dir: dir.to_path_buf(),
            last: PassStats::default(),
        })
    }

    /// One pass over every batch. Each batch goes to a plain store and to
    /// a store whose ingest and query run under the program's collector, in
    /// [`Mode::order`] of the batch index, so both kinds of op meet the same
    /// store size at nearly the same time.
    fn round(&mut self, _k: usize, samples: &mut Samples) {
        let outcome = self.fresh_store("plain").and_then(|plain| {
            let stores = [plain, self.fresh_store("traced")?];
            let cfg = IngestConfig::default();
            let mut accepted = [0; 2];
            let mut boards = [None, None];
            for (b, text) in self.plan.batches.iter().enumerate() {
                for mode in Mode::order(b) {
                    let i = usize::from(mode == Mode::Collector);
                    let store = &stores[i];
                    let collector = match mode {
                        Mode::Plain => Collector::disabled(),
                        Mode::Collector => Collector::enabled(),
                    };
                    let t = Instant::now();
                    let report = ingest_lines(store, text, &cfg, &collector);
                    let ingest_ms = ms_since(t);
                    let query = rescore(store, &collector);
                    let op_ms = ms_since(t);
                    samples.push(mode, op_ms);
                    if mode == Mode::Plain {
                        let query_ms = samples.extra.entry("query_ms").or_default();
                        query_ms.push(op_ms - ingest_ms);
                    }
                    let checked = self.check_batch(b, report, query, &mut accepted[i]);
                    boards[i] = checked.as_ref().ok().cloned();
                    samples.record(checked.map(drop));
                }
            }
            // Untimed passes keep their end-of-pass spans in a throwaway
            // tracer.
            let scratch = Tracer::default();
            for (i, store) in stores.iter().enumerate() {
                self.check_pass(store, boards[i].take(), accepted[i], &scratch, samples)?;
            }
            Ok(())
        });
        samples.record(outcome);
    }

    /// A pass replayed under the benchmark's spans, plus the end-of-pass
    /// store and fleet calls timed on their own.
    fn replay(&mut self, tr: &Tracer, samples: &mut Samples) {
        let outcome = self.fresh_store("replay").and_then(|store| {
            let cfg = IngestConfig::default();
            let disabled = Collector::disabled();
            let mut accepted = 0;
            let mut board = None;
            for (b, text) in self.plan.batches.iter().enumerate() {
                tr.begin_op();
                let t = Instant::now();
                let (report, query) = tr.span(OP, || {
                    let report = tr.span("store.ingest", || {
                        ingest_lines(&store, text, &cfg, &disabled)
                    });
                    let query = tr.span("store.query", || rescore(&store, &disabled));
                    (report, query)
                });
                samples.replay_op_ms.push(ms_since(t));
                let checked = self.check_batch(b, report, query, &mut accepted);
                board = checked.as_ref().ok().cloned();
                samples.record(checked.map(drop));
            }
            tr.begin_op();
            self.check_pass(&store, board, accepted, tr, samples)?;
            self.time_appends(tr, &store)?;
            let quarantine = store.load_quarantine()?.records;
            let count = |kind: &str| {
                quarantine
                    .iter()
                    .filter(|q| q.reason.kind() == kind)
                    .count()
            };
            let last = PassStats {
                store_bytes: std::fs::metadata(store.path())
                    .map_err(|e| format!("stat store: {e}"))?
                    .len(),
                accepted,
                quarantined: [
                    count("duplicate"),
                    count("outlier"),
                    count("checksum_mismatch"),
                    count("malformed"),
                ],
            };
            let plan = &self.plan;
            let planned = [
                plan.count(Planned::Duplicate),
                plan.count(Planned::Outlier),
                plan.count(Planned::Checksum),
                plan.count(Planned::Malformed),
            ];
            if last.accepted != plan.count(Planned::Accepted) || last.quarantined != planned {
                return Err(format!(
                    "fleet: {} accepted and quarantined {:?}, planned {} and {planned:?}",
                    last.accepted,
                    last.quarantined,
                    plan.count(Planned::Accepted)
                ));
            }
            self.last = last;
            Ok(())
        });
        samples.record(outcome);
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        let ingest = tr.durations_ms("store.ingest");
        let batches = self.plan.batches.len();
        let nth =
            |n: usize| -> Vec<f64> { ingest.iter().skip(n).step_by(batches).copied().collect() };
        let (first, last) = (med(&nth(0)), med(&nth(batches - 1)));
        let s = &self.last;
        vec![
            ("store.ingest_batch_ms_first", first),
            ("store.ingest_batch_ms_last", last),
            (
                "store.ingest_growth",
                if first > 0.0 { last / first } else { 0.0 },
            ),
            ("store.query_ms", med(&tr.durations_ms("store.query"))),
            ("store.fsck_ms", med(&tr.durations_ms("store.fsck"))),
            ("store.load_ms", med(&tr.durations_ms("store.load"))),
            ("store.append_ms_p50", med(&tr.durations_ms("store.append"))),
            ("fleet.model_ms", med(&tr.durations_ms("fleet.model"))),
            ("fleet.fold_ms", med(&tr.durations_ms("fleet.fold"))),
            (
                "store.bytes_per_accepted",
                s.store_bytes as f64 / s.accepted.max(1) as f64,
            ),
            ("store.accepted", s.accepted as f64),
            ("store.quarantined.duplicate", s.quarantined[0] as f64),
            ("store.quarantined.outlier", s.quarantined[1] as f64),
            ("store.quarantined.checksum", s.quarantined[2] as f64),
            ("store.quarantined.malformed", s.quarantined[3] as f64),
        ]
    }

    fn summary(&self, samples: &Samples) -> Vec<String> {
        let get = |k: &str| samples.extra.get(k).cloned().unwrap_or_default();
        let (query, fsck) = (get("query_ms"), get("fsck_ms"));
        vec![
            format!(
                "query_ms_p50 = {:.3} ms (n = {})",
                stats::median(&query).unwrap_or(f64::NAN),
                query.len()
            ),
            format!("query_ms_p90 = {}", tail(&query, 90.0)),
            format!(
                "fsck_ms_p50 = {:.3} ms (n = {})",
                stats::median(&fsck).unwrap_or(f64::NAN),
                fsck.len()
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan's planned dispositions have the exact counts, for two seeds.
    #[test]
    fn reject_plan_counts() {
        for seed in [1, 2] {
            let p = plan(seed).unwrap();
            assert_eq!(p.batches.len(), 16);
            let lines: usize = p.batches.iter().map(|b| b.lines().count()).sum();
            assert_eq!(lines, 1616);
            assert_eq!(p.count(Planned::Accepted), 1463);
            assert_eq!(p.count(Planned::Duplicate), 75);
            assert_eq!(p.count(Planned::Outlier), 30);
            assert_eq!(p.count(Planned::Checksum), 32);
            assert_eq!(p.count(Planned::Malformed), 16);
        }
    }

    /// The ingest guards decide every line as planned, for two seeds.
    #[test]
    fn ingest_follows_the_plan() {
        for seed in [1, 2] {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../.bench_work")
                .join(format!("test-fleet-{}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let p = plan(seed).unwrap();
            let store = ResultStore::new(dir.join("fleet.jsonl"));
            let mut counts = std::collections::BTreeMap::new();
            for (b, text) in p.batches.iter().enumerate() {
                let report = ingest_lines(
                    &store,
                    text,
                    &IngestConfig::default(),
                    &Collector::disabled(),
                )
                .unwrap();
                let got: Vec<&str> = report
                    .outcomes
                    .iter()
                    .map(|o| kind_of(&o.disposition))
                    .collect();
                let want: Vec<&str> = p.expected[b].iter().map(|e| e.kind()).collect();
                assert_eq!(got, want, "seed {seed} batch {b}");
                for k in got {
                    *counts.entry(k).or_insert(0) += 1;
                }
            }
            assert_eq!(counts["accepted"], 1463);
            assert_eq!(counts["duplicate"], 75);
            assert_eq!(counts["outlier"], 30);
            assert_eq!(counts["checksum_mismatch"], 32);
            assert_eq!(counts["malformed"], 16);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
