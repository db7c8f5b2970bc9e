//! The durable file layer: locked appends, atomic rewrites, torn-tail
//! repair.
//!
//! One [`ResultStore`] is three files in the same directory:
//!
//! * `<store>.jsonl` — the append-only submission store;
//! * `<stem>.quarantine.jsonl` — the reject sidecar;
//! * `<store>.jsonl.lock` — the advisory lock file every writer takes an
//!   exclusive `flock` on before touching either.
//!
//! The lock lives on a separate file that is never renamed, so atomic
//! rewrites (temp-file + rename, used by merge and fsck repair) cannot
//! strand a concurrent writer holding a lock on a replaced inode. Appends
//! open the store with `O_APPEND` and repair a torn trailing fragment —
//! a record whose writer died mid-append, detectable as a missing final
//! newline — by truncating it *before* writing, so a new record never
//! concatenates onto half of an old one.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use hiermeans_obs::jsonl::{self, JsonlScan};

use crate::quarantine::QuarantineRecord;
use crate::submission::Submission;

/// Handle to one on-disk result store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultStore {
    path: PathBuf,
}

/// An exclusive advisory lock over a store. All mutating [`ResultStore`]
/// methods demand one by reference, making the locking discipline a
/// compile-time obligation; the `flock` releases when this drops.
#[derive(Debug)]
pub struct StoreLock {
    _file: File,
}

impl ResultStore {
    /// A handle; no file is touched until the first read or write.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> ResultStore {
        ResultStore { path: path.into() }
    }

    /// The store file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The quarantine sidecar: `<stem>.quarantine.jsonl` next to the
    /// store.
    #[must_use]
    pub fn quarantine_path(&self) -> PathBuf {
        let name = self
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("store.jsonl");
        let stem = name.strip_suffix(".jsonl").unwrap_or(name);
        self.path.with_file_name(format!("{stem}.quarantine.jsonl"))
    }

    /// The advisory lock file: `<store>.lock`.
    #[must_use]
    pub fn lock_path(&self) -> PathBuf {
        let name = self
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("store.jsonl");
        self.path.with_file_name(format!("{name}.lock"))
    }

    /// Takes the exclusive advisory lock, blocking until granted.
    ///
    /// # Errors
    ///
    /// I/O failures creating or locking the lock file.
    pub fn lock_exclusive(&self) -> Result<StoreLock, String> {
        let lock_path = self.lock_path();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&lock_path)
            .map_err(|e| format!("open lock {}: {e}", lock_path.display()))?;
        file.lock()
            .map_err(|e| format!("flock {}: {e}", lock_path.display()))?;
        Ok(StoreLock { _file: file })
    }

    /// Scans the store through the shared truncation-tolerant reader.
    /// Takes no lock: readers see every fully-written record regardless of
    /// concurrent appends, because records are written in single
    /// newline-terminated writes.
    ///
    /// # Errors
    ///
    /// I/O failures and mid-file malformed lines.
    pub fn load(&self) -> Result<JsonlScan<Submission>, String> {
        jsonl::scan(&self.path)
    }

    /// Scans the quarantine sidecar.
    ///
    /// # Errors
    ///
    /// I/O failures and mid-file malformed lines.
    pub fn load_quarantine(&self) -> Result<JsonlScan<QuarantineRecord>, String> {
        jsonl::scan(&self.quarantine_path())
    }

    /// Appends one already-serialized record line under the caller's lock.
    ///
    /// If the store ends in a torn fragment (no final newline — the
    /// signature of a writer killed mid-append), the fragment is truncated
    /// away first and a one-line repair note is returned; the half-record
    /// could never become valid and must not prefix the new one.
    ///
    /// # Errors
    ///
    /// I/O failures. The record itself is written with a single
    /// `write_all` of `line + "\n"` followed by `sync_all`, so a crash
    /// leaves at worst one torn trailing record — exactly the damage this
    /// method and the tolerant reader repair.
    pub fn append_line(&self, _lock: &StoreLock, line: &str) -> Result<Option<String>, String> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("open {}: {e}", self.path.display()))?;
        let torn = self.truncate_torn_tail(&mut file)?;
        let mut payload = String::with_capacity(line.len() + 1);
        payload.push_str(line);
        payload.push('\n');
        file.write_all(payload.as_bytes())
            .map_err(|e| format!("append {}: {e}", self.path.display()))?;
        file.sync_all()
            .map_err(|e| format!("sync {}: {e}", self.path.display()))?;
        Ok(torn)
    }

    /// Truncates a torn trailing fragment (missing final newline), leaving
    /// the file ending at the last complete line. Returns the repair note.
    ///
    /// A clean file is judged by its last byte alone, so the check costs
    /// the same however large the store grows; only a torn file is read
    /// whole, to find the last complete line.
    fn truncate_torn_tail(&self, file: &mut File) -> Result<Option<String>, String> {
        let display = self.path.display();
        let len = file
            .metadata()
            .map_err(|e| format!("stat {display}: {e}"))?
            .len();
        if len == 0 {
            return Ok(None);
        }
        file.seek(SeekFrom::Start(len - 1))
            .map_err(|e| format!("seek {display}: {e}"))?;
        let mut last = [0u8; 1];
        file.read_exact(&mut last)
            .map_err(|e| format!("read {display}: {e}"))?;
        if last == [b'\n'] {
            return Ok(None);
        }
        file.seek(SeekFrom::Start(0))
            .map_err(|e| format!("seek {display}: {e}"))?;
        let mut bytes = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("read {display}: {e}"))?;
        let keep = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |pos| pos + 1) as u64;
        file.set_len(keep)
            .map_err(|e| format!("truncate {display}: {e}"))?;
        Ok(Some(format!(
            "{display}: truncated torn trailing fragment ({} bytes) before append",
            len - keep
        )))
    }

    /// Replaces the store's contents atomically under the caller's lock:
    /// the lines are written to a temp file in the same directory, synced,
    /// and renamed over the store, so every reader ever sees either the old
    /// complete store or the new one.
    ///
    /// # Errors
    ///
    /// I/O failures; the temp file is removed on failure.
    pub fn rewrite_atomic(&self, _lock: &StoreLock, lines: &[String]) -> Result<(), String> {
        let tmp_path = self.path.with_file_name(format!(
            "{}.tmp.{}",
            self.path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("store.jsonl"),
            std::process::id()
        ));
        let write = (|| -> std::io::Result<()> {
            let mut tmp = File::create(&tmp_path)?;
            for line in lines {
                tmp.write_all(line.as_bytes())?;
                tmp.write_all(b"\n")?;
            }
            tmp.sync_all()?;
            std::fs::rename(&tmp_path, &self.path)
        })();
        write.map_err(|e| {
            let _ = std::fs::remove_file(&tmp_path);
            format!("rewrite {}: {e}", self.path.display())
        })
    }

    /// Appends one quarantine record to the sidecar under the caller's
    /// lock, with the same torn-tail repair as the store itself.
    ///
    /// # Errors
    ///
    /// Serialization and I/O failures.
    pub fn append_quarantine(
        &self,
        lock: &StoreLock,
        record: &QuarantineRecord,
    ) -> Result<(), String> {
        let line =
            serde_json::to_string(record).map_err(|e| format!("encode quarantine record: {e}"))?;
        ResultStore::new(self.quarantine_path())
            .append_line(lock, &line)
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quarantine::RejectReason;

    fn scratch(name: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("hm_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        for p in [
            path.clone(),
            ResultStore::new(&path).quarantine_path(),
            ResultStore::new(&path).lock_path(),
        ] {
            let _ = std::fs::remove_file(p);
        }
        ResultStore::new(path)
    }

    fn sealed(machine: &str) -> Submission {
        Submission::new(
            machine,
            "paper",
            vec!["w1".into()],
            vec![2.0],
            vec![vec![0.5, 0.25]],
        )
        .sealed()
        .unwrap()
    }

    #[test]
    fn sidecar_paths_derive_from_the_store_name() {
        let store = ResultStore::new("/tmp/STORE_fleet.jsonl");
        assert_eq!(
            store.quarantine_path(),
            PathBuf::from("/tmp/STORE_fleet.quarantine.jsonl")
        );
        assert_eq!(
            store.lock_path(),
            PathBuf::from("/tmp/STORE_fleet.jsonl.lock")
        );
    }

    #[test]
    fn append_then_load_round_trips() {
        let store = scratch("roundtrip.jsonl");
        let lock = store.lock_exclusive().unwrap();
        for m in ["a", "b", "c"] {
            let line = serde_json::to_string(&sealed(m)).unwrap();
            assert_eq!(store.append_line(&lock, &line).unwrap(), None);
        }
        drop(lock);
        let scan = store.load().unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.torn.is_none());
        assert!(scan.records.iter().all(Submission::checksum_ok));
    }

    #[test]
    fn append_repairs_a_torn_tail_first() {
        let store = scratch("torn_append.jsonl");
        let lock = store.lock_exclusive().unwrap();
        let line = serde_json::to_string(&sealed("a")).unwrap();
        store.append_line(&lock, &line).unwrap();
        // Simulate a writer killed mid-append: half a record, no newline.
        let mut bytes = std::fs::read(store.path()).unwrap();
        bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
        std::fs::write(store.path(), &bytes).unwrap();
        let note = store
            .append_line(&lock, &serde_json::to_string(&sealed("b")).unwrap())
            .unwrap()
            .expect("torn tail must be repaired and reported");
        assert!(note.contains("torn trailing fragment"), "{note}");
        let scan = store.load().unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn.is_none(), "repair must leave a clean store");
        assert_eq!(scan.records[1].machine, "b");
    }

    #[test]
    fn append_to_an_empty_file_needs_no_repair() {
        let store = scratch("torn_empty.jsonl");
        std::fs::write(store.path(), b"").unwrap();
        let lock = store.lock_exclusive().unwrap();
        assert_eq!(store.append_line(&lock, "{}").unwrap(), None);
        assert_eq!(std::fs::read(store.path()).unwrap(), b"{}\n");
    }

    #[test]
    fn a_lone_fragment_is_truncated_to_nothing() {
        let store = scratch("torn_lone.jsonl");
        std::fs::write(store.path(), b"{\"machine\":\"half").unwrap();
        let lock = store.lock_exclusive().unwrap();
        let note = store
            .append_line(&lock, "{}")
            .unwrap()
            .expect("a fragment with no newline is torn");
        assert!(
            note.ends_with("torn trailing fragment (16 bytes) before append"),
            "{note}"
        );
        assert_eq!(std::fs::read(store.path()).unwrap(), b"{}\n");
    }

    #[test]
    fn a_large_clean_store_is_left_untouched() {
        let store = scratch("torn_clean.jsonl");
        let line = serde_json::to_string(&sealed("a")).unwrap();
        let mut bytes = Vec::new();
        for _ in 0..2_000 {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        std::fs::write(store.path(), &bytes).unwrap();
        let lock = store.lock_exclusive().unwrap();
        assert_eq!(store.append_line(&lock, "{}").unwrap(), None);
        bytes.extend_from_slice(b"{}\n");
        assert_eq!(std::fs::read(store.path()).unwrap(), bytes);
    }

    #[test]
    fn a_torn_quarantine_sidecar_is_repaired_before_append() {
        let store = scratch("torn_quar.jsonl");
        let lock = store.lock_exclusive().unwrap();
        let rec = |raw: &str| {
            QuarantineRecord::new(
                "m",
                "paper",
                RejectReason::Malformed {
                    error: "nope".into(),
                },
                raw,
            )
        };
        store.append_quarantine(&lock, &rec("first")).unwrap();
        let mut bytes = std::fs::read(store.quarantine_path()).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(b"{\"schema_version\":1,\"mach");
        std::fs::write(store.quarantine_path(), &bytes).unwrap();
        store.append_quarantine(&lock, &rec("second")).unwrap();
        drop(lock);
        let after = std::fs::read(store.quarantine_path()).unwrap();
        assert_eq!(after[..clean_len], bytes[..clean_len]);
        let scan = store.load_quarantine().unwrap();
        assert!(scan.torn.is_none(), "repair must leave a clean sidecar");
        assert_eq!(scan.records, vec![rec("first"), rec("second")]);
    }

    #[test]
    fn rewrite_atomic_replaces_contents() {
        let store = scratch("rewrite.jsonl");
        let lock = store.lock_exclusive().unwrap();
        store.append_line(&lock, "{\"garbage\":true}").unwrap();
        let keep = serde_json::to_string(&sealed("kept")).unwrap();
        store
            .rewrite_atomic(&lock, std::slice::from_ref(&keep))
            .unwrap();
        drop(lock);
        let scan = store.load().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].machine, "kept");
    }

    #[test]
    fn quarantine_appends_to_the_sidecar() {
        let store = scratch("quar.jsonl");
        let lock = store.lock_exclusive().unwrap();
        let rec = QuarantineRecord::new(
            "m",
            "paper",
            RejectReason::Malformed {
                error: "nope".into(),
            },
            "raw text",
        );
        store.append_quarantine(&lock, &rec).unwrap();
        drop(lock);
        let scan = store.load_quarantine().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0], rec);
        assert!(!store
            .quarantine_path()
            .to_str()
            .unwrap()
            .contains(".jsonl.quarantine"));
    }

    #[test]
    fn concurrent_threaded_appends_lose_nothing() {
        let store = scratch("threads.jsonl");
        let n_threads = 8;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let line =
                            serde_json::to_string(&sealed(&format!("m{t:02}-{i:03}"))).unwrap();
                        let lock = store.lock_exclusive().unwrap();
                        store.append_line(&lock, &line).unwrap();
                    }
                });
            }
        });
        let scan = store.load().unwrap();
        assert_eq!(scan.records.len(), n_threads * per_thread);
        assert!(scan.torn.is_none());
        let mut machines: Vec<String> = scan.records.iter().map(|s| s.machine.clone()).collect();
        machines.sort_unstable();
        machines.dedup();
        assert_eq!(
            machines.len(),
            n_threads * per_thread,
            "no lost or doubled records"
        );
    }
}
