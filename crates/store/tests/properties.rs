//! Property tests for the store's durability contract.
//!
//! Three invariants, over arbitrary inputs:
//!
//! 1. **Bitwise round-trip** — any submission with in-domain values
//!    survives serialize → store → parse with every `f64` bit pattern
//!    intact, and its seal still verifies. (The vendored `serde_json`
//!    prints floats with Rust's shortest-exact-round-trip `Display`, so
//!    this holds by construction; the test pins it.)
//! 2. **Corruption is detected, never a panic** — flipping, deleting, or
//!    inserting arbitrary bytes anywhere in a stored line produces a typed
//!    outcome (malformed / checksum mismatch / torn tail / — rarely — a
//!    still-valid line when the flip missed the record), and no input
//!    panics any reader.
//! 3. **Ingest over corrupted batches is total** — `ingest_lines` on
//!    mangled text always returns a report and quarantines instead of
//!    erroring.
//!
//! Value domains are positive finite (speedups) and finite (vectors) — the
//! domains the ingest guards enforce.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hiermeans_obs::Collector;
use hiermeans_store::{fsck, ingest_lines, IngestConfig, ResultStore, Submission};

/// `(machine_tag, n_workloads, dim, speedups, vector_cells)`.
type RawSub = (u32, usize, usize, Vec<f64>, Vec<f64>);

fn arbitrary_submission() -> impl Strategy<Value = RawSub> {
    (1usize..8, 1usize..5).prop_flat_map(|(n, dim)| {
        (
            0u32..1_000_000,
            Just(n),
            Just(dim),
            prop::collection::vec(1e-6..1e6f64, n),
            prop::collection::vec(-1e6..1e6f64, n * dim),
        )
    })
}

fn build(raw: &RawSub) -> Submission {
    let (tag, n, dim, speedups, cells) = raw;
    Submission::new(
        format!("m-{tag:06}"),
        "prop",
        (0..*n).map(|i| format!("w{i}")).collect(),
        speedups.clone(),
        cells.chunks(*dim).map(<[f64]>::to_vec).collect(),
    )
    .sealed()
    .expect("finite values always seal")
}

/// A store in a directory of its own, unique per process, thread and call,
/// so concurrently running properties and successive cases never share a
/// file. The directory is removed on drop.
struct Scratch {
    dir: PathBuf,
    store: ResultStore,
}

impl Scratch {
    fn new(name: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hm_props_{}_{:?}_{}",
            std::process::id(),
            std::thread::current().id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = ResultStore::new(dir.join(name));
        Scratch { dir, store }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #[test]
    fn submissions_round_trip_bitwise_through_serialize_checksum_parse(raw in arbitrary_submission()) {
        let sub = build(&raw);
        let line = serde_json::to_string(&sub).unwrap();
        let back: Submission = serde_json::from_str(&line).unwrap();

        // Bitwise equality, not just numeric: every f64 must keep its bits.
        prop_assert_eq!(back.speedups.len(), sub.speedups.len());
        for (a, b) in sub.speedups.iter().zip(&back.speedups) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (ra, rb) in sub.vectors.iter().zip(&back.vectors) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        prop_assert!(back.checksum_ok(), "seal must survive the round trip");
        prop_assert_eq!(back.content_hash(), sub.content_hash());
        // And a second serialization is byte-identical — the canonical
        // form is a fixed point.
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), line);
    }
}

/// `(submission, mutation kind 0=flip 1=delete 2=insert, position selector,
/// byte value)`.
type Corruption = (RawSub, usize, usize, u8);

fn corruption() -> impl Strategy<Value = Corruption> {
    (arbitrary_submission(), 0usize..3, 0usize..4096, 0u16..256)
        .prop_map(|(raw, kind, pos, byte)| (raw, kind, pos, byte as u8))
}

proptest! {
    #[test]
    fn arbitrary_byte_corruption_is_detected_or_rejected_never_a_panic(c in corruption()) {
        let (raw, kind, pos_sel, byte) = c;
        let sub = build(&raw);
        let mut bytes = serde_json::to_string(&sub).unwrap().into_bytes();
        let pos = pos_sel % bytes.len();
        match kind {
            0 => bytes[pos] = byte,
            1 => { bytes.remove(pos); }
            _ => bytes.insert(pos, byte),
        }
        let mangled = String::from_utf8_lossy(&bytes).into_owned();

        // The typed parse either fails (malformed) or yields a record; a
        // surviving record almost always fails its checksum, and when the
        // mutation was a no-op (flip to the same byte) it must verify.
        match serde_json::from_str::<Submission>(&mangled) {
            Err(_) => {}
            Ok(parsed) => {
                if parsed == sub {
                    prop_assert!(parsed.checksum_ok());
                } else {
                    prop_assert!(!parsed.checksum_ok(),
                        "a changed record must fail its seal: {mangled}");
                }
            }
        }

        // A store holding one good record plus the mangled line never
        // panics any reader, and fsck classifies every line.
        let scratch = Scratch::new("corrupt.jsonl");
        let store = &scratch.store;
        let good = serde_json::to_string(&sub).unwrap();
        std::fs::write(store.path(), format!("{good}\n{mangled}\n")).unwrap();
        let report = fsck::fsck(store, false, &Collector::disabled()).unwrap();
        prop_assert_eq!(report.lines, report.valid + report.problems.len());
        prop_assert!(report.valid >= 1, "the good record must survive");

        // Ingesting the mangled text as a batch is total: a report, not an
        // error, not a panic.
        let ingest_scratch = Scratch::new("corrupt_ingest.jsonl");
        let outcome = ingest_lines(
            &ingest_scratch.store,
            &format!("{mangled}\n"),
            &IngestConfig::default(),
            &Collector::disabled(),
        ).unwrap();
        prop_assert_eq!(outcome.outcomes.len(), 1);
    }
}
