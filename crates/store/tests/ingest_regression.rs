//! Regression pin for the outlier gate's sorted-series statistics.
//!
//! A 1,600-machine synthetic fleet with planted duplicates, outliers and
//! post-seal edits is ingested in batches. An in-test oracle replays the
//! gate's original rule — `history::median` and `history::mad` over the
//! unsorted accepted-so-far series, in store order — and the ingest must
//! agree with it on every disposition, on the exact bits of every
//! quarantined outlier's `median` and `mad`, and byte for byte on the store
//! and quarantine files the oracle predicts.

use std::collections::{HashMap, HashSet};

use hiermeans_obs::history::{mad, median};
use hiermeans_obs::Collector;
use hiermeans_store::{
    ingest_lines, synthetic_fleet, Disposition, IngestConfig, QuarantineRecord, RejectReason,
    ResultStore, Submission,
};

const RECORDS: usize = 1600;
const BATCHES: usize = 8;
const MALFORMED_AT: usize = 37;

/// The fleet as JSONL lines, with rejects planted from record 100 on:
/// every 20th record resubmits the one 50 earlier, every 50th at offset 7
/// has one speedup ×20 and is resealed, and every 50th at offset 13 (from
/// record 0) is edited after sealing.
fn planted_lines(seed: u64) -> Vec<String> {
    let fleet = synthetic_fleet(RECORDS, seed).unwrap();
    let mut lines: Vec<String> = Vec::with_capacity(RECORDS);
    for (i, sub) in fleet.iter().enumerate() {
        let planted = i >= 100;
        let line = if planted && i % 20 == 0 {
            lines[i - 50].clone()
        } else if planted && i % 50 == 7 {
            let mut s = sub.clone();
            s.speedups[0] *= 20.0;
            s.seal().unwrap();
            serde_json::to_string(&s).unwrap()
        } else if i % 50 == 13 {
            let mut s = sub.clone();
            s.speedups[1] *= 1.01;
            serde_json::to_string(&s).unwrap()
        } else {
            serde_json::to_string(sub).unwrap()
        };
        lines.push(line);
    }
    lines
}

/// The gate as it was first written: a full clone-and-sort median and MAD
/// over each unsorted series for every record judged.
#[derive(Default)]
struct Oracle {
    hashes: HashSet<String>,
    series: HashMap<(String, String), Vec<f64>>,
}

impl Oracle {
    fn judge(&self, sub: &Submission, cfg: &IngestConfig) -> Result<String, RejectReason> {
        let expected = sub.expected_checksum().unwrap();
        if expected != sub.checksum {
            return Err(RejectReason::ChecksumMismatch {
                expected,
                found: sub.checksum.clone(),
            });
        }
        let hash = sub.content_hash();
        if self.hashes.contains(&hash) {
            return Err(RejectReason::Duplicate { content_hash: hash });
        }
        for (w, &v) in sub.workloads.iter().zip(&sub.speedups) {
            let Some(series) = self.series.get(&(sub.suite.clone(), w.clone())) else {
                continue;
            };
            if series.len() < cfg.outlier_min_prior {
                continue;
            }
            let med = median(series);
            let spread = mad(series);
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

    fn absorb(&mut self, sub: &Submission) {
        self.hashes.insert(sub.content_hash());
        for (w, &v) in sub.workloads.iter().zip(&sub.speedups) {
            self.series
                .entry((sub.suite.clone(), w.clone()))
                .or_default()
                .push(v);
        }
    }
}

fn push_line(bytes: &mut Vec<u8>, line: &str) {
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
}

#[test]
fn batched_ingest_matches_the_unsorted_median_mad_oracle_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("hm_ingest_regression_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = ResultStore::new(dir.join("fleet.jsonl"));
    let cfg = IngestConfig::default();

    let lines = planted_lines(7);
    let mut oracle = Oracle::default();
    let mut want_store = Vec::new();
    let mut want_quarantine = Vec::new();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    let mut outliers_checked = 0;

    for (b, chunk) in lines.chunks(RECORDS / BATCHES).enumerate() {
        let malformed = format!("{{\"schema_version\":1,\"machine\":\"torn-{b}");
        let mut text = String::new();
        for (j, line) in chunk.iter().enumerate() {
            if j == MALFORMED_AT {
                text.push_str(&malformed);
                text.push('\n');
            }
            text.push_str(line);
            text.push('\n');
        }
        let report = ingest_lines(&store, &text, &cfg, &Collector::disabled()).unwrap();
        assert!(report.repairs.is_empty());
        assert_eq!(report.outcomes.len(), chunk.len() + 1);

        // The oracle's verdicts in input order; parsed rejects reach the
        // sidecar before the batch's malformed line does.
        let mut malformed_record = None;
        let mut got = report.outcomes.iter();
        for (j, line) in chunk.iter().enumerate() {
            if j == MALFORMED_AT {
                let error = serde_json::from_str::<Submission>(&malformed)
                    .unwrap_err()
                    .to_string();
                let reason = RejectReason::Malformed { error };
                let outcome = got.next().unwrap();
                assert_eq!(outcome.identity, format!("line {}", j + 1));
                assert_eq!(
                    outcome.disposition,
                    Disposition::Quarantined {
                        reason: reason.clone()
                    }
                );
                malformed_record = Some(QuarantineRecord::new("", "", reason, &malformed));
                *counts.entry("malformed").or_default() += 1;
            }
            let sub: Submission = serde_json::from_str(line).unwrap();
            let outcome = got.next().unwrap();
            assert_eq!(outcome.identity, sub.identity());
            match oracle.judge(&sub, &cfg) {
                Ok(content_hash) => {
                    assert_eq!(outcome.disposition, Disposition::Accepted { content_hash });
                    push_line(&mut want_store, &serde_json::to_string(&sub).unwrap());
                    oracle.absorb(&sub);
                    *counts.entry("accepted").or_default() += 1;
                }
                Err(reason) => {
                    let Disposition::Quarantined { reason: got_reason } = &outcome.disposition
                    else {
                        panic!("{}: accepted, oracle says {reason}", sub.identity());
                    };
                    assert_eq!(got_reason, &reason, "{}", sub.identity());
                    if let (
                        RejectReason::Outlier { median, mad, .. },
                        RejectReason::Outlier {
                            median: want_median,
                            mad: want_mad,
                            ..
                        },
                    ) = (got_reason, &reason)
                    {
                        assert_eq!(median.to_bits(), want_median.to_bits());
                        assert_eq!(mad.to_bits(), want_mad.to_bits());
                        outliers_checked += 1;
                    }
                    *counts.entry(reason.kind()).or_default() += 1;
                    let raw = serde_json::to_string(&sub).unwrap();
                    let record = QuarantineRecord::new(&sub.machine, &sub.suite, reason, &raw);
                    push_line(
                        &mut want_quarantine,
                        &serde_json::to_string(&record).unwrap(),
                    );
                }
            }
        }
        assert!(got.next().is_none());
        let record = malformed_record.unwrap();
        push_line(
            &mut want_quarantine,
            &serde_json::to_string(&record).unwrap(),
        );
    }

    // The plan reaches every guard it was built for.
    assert_eq!(counts["accepted"], 1463, "{counts:?}");
    assert_eq!(counts["duplicate"], 75, "{counts:?}");
    assert_eq!(counts["outlier"], 30, "{counts:?}");
    assert_eq!(counts["checksum_mismatch"], 32, "{counts:?}");
    assert_eq!(counts["malformed"], BATCHES, "{counts:?}");
    assert_eq!(outliers_checked, 30);

    assert!(std::fs::read(store.path()).unwrap() == want_store);
    assert!(std::fs::read(store.quarantine_path()).unwrap() == want_quarantine);
    let _ = std::fs::remove_dir_all(&dir);
}
