//! Shared truncation-tolerant JSONL reading.
//!
//! Three append-only stores in this workspace share the one-JSON-object-
//! per-line format: the run-history store (`OBS_history.jsonl`), the fleet
//! result store (`STORE_fleet.jsonl`, `hiermeans-store`), and its
//! quarantine sidecar. They also share a failure mode: a process killed
//! mid-append leaves a *torn trailing record* — a final line that is a
//! prefix of a JSON object. A torn tail is expected damage, not
//! corruption: every record that was fully written is still intact, so a
//! reader must recover the prefix instead of refusing the whole file.
//!
//! This module is the one reader implementing that policy:
//!
//! * [`read_lines`] — raw line scanning. A missing file is an empty store;
//!   an unreadable one is an error.
//! * [`scan`] — typed scanning. Every line must parse as `T` **except**
//!   the last, which — when it fails — is reported as a [`TornTail`]
//!   instead of an error. A malformed line in the *middle* of the file is
//!   real corruption (appends never write there) and stays a hard error
//!   naming the line; `repro fsck` is the tool that digs further.

use std::fs::File;
use std::io::{BufRead as _, BufReader};
use std::path::Path;

use serde::Deserialize;

/// A torn trailing record recovered (skipped) by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the torn fragment.
    pub line: usize,
    /// Byte length of the fragment.
    pub bytes: usize,
    /// Why the fragment failed to parse.
    pub error: String,
}

impl TornTail {
    /// The standard one-line warning a tolerant reader should surface.
    #[must_use]
    pub fn warning(&self, path: &Path) -> String {
        format!(
            "{}:{}: skipped torn trailing record ({} bytes): {}",
            path.display(),
            self.line,
            self.bytes,
            self.error
        )
    }
}

/// A typed scan: every fully-written record, plus the torn tail if the
/// file ends in one.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlScan<T> {
    /// Records in append order.
    pub records: Vec<T>,
    /// The torn trailing fragment, when the last line failed to parse.
    pub torn: Option<TornTail>,
}

/// Reads a JSONL file as `(1-based line number, line)` pairs, skipping
/// blank lines. A missing file is an empty store.
///
/// # Errors
///
/// Returns an error naming the path for any I/O failure other than
/// `NotFound`.
pub fn read_lines(path: &Path) -> Result<Vec<(usize, String)>, String> {
    lines(path)?.collect()
}

/// A non-blank line with its 1-based number, or the read error that ends
/// the file.
type NumberedLine = Result<(usize, String), String>;

/// The non-blank lines of a JSONL file, read through a buffer one at a
/// time so a scan never holds the whole file next to its parsed records.
/// A missing file has no lines.
fn lines(path: &Path) -> Result<impl Iterator<Item = NumberedLine> + '_, String> {
    let file = match File::open(path) {
        Ok(f) => Some(f),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let lines = file.into_iter().flat_map(|f| BufReader::new(f).lines());
    Ok(lines.enumerate().filter_map(move |(i, line)| match line {
        Ok(line) if line.trim().is_empty() => None,
        Ok(line) => Some(Ok((i + 1, line))),
        Err(e) => Some(Err(format!("read {}: {e}", path.display()))),
    }))
}

/// Scans a JSONL file into typed records, tolerating a torn trailing line.
///
/// The last non-blank line failing to parse is reported as
/// [`JsonlScan::torn`], not an error — every caller decides how loudly to
/// warn. Any *earlier* line failing to parse is a hard error naming the
/// file and line number.
///
/// # Errors
///
/// I/O failures (other than a missing file) and mid-file malformed lines.
pub fn scan<T: Deserialize>(path: &Path) -> Result<JsonlScan<T>, String> {
    let mut records = Vec::new();
    let mut torn = None;
    let mut lines = lines(path)?.peekable();
    while let Some(next) = lines.next() {
        let (line_no, line) = next?;
        match serde_json::from_str::<T>(&line) {
            Ok(record) => records.push(record),
            Err(e) => match lines.peek() {
                None => {
                    torn = Some(TornTail {
                        line: line_no,
                        bytes: line.len(),
                        error: e.to_string(),
                    });
                }
                Some(Ok(_)) => return Err(format!("{}:{}: {e}", path.display(), line_no)),
                // The read error surfaces on the next step.
                Some(Err(_)) => {}
            },
        }
    }
    Ok(JsonlScan { records, torn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        id: u64,
        name: String,
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("obs_jsonl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_store(path: &Path, n: u64, torn_suffix: &str) {
        let mut text = String::new();
        for id in 0..n {
            text.push_str(
                &serde_json::to_string(&Rec {
                    id,
                    name: format!("rec{id}"),
                })
                .unwrap(),
            );
            text.push('\n');
        }
        text.push_str(torn_suffix);
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("missing.jsonl");
        let _ = std::fs::remove_file(&path);
        let s: JsonlScan<Rec> = scan(&path).unwrap();
        assert!(s.records.is_empty() && s.torn.is_none());
    }

    #[test]
    fn clean_store_round_trips() {
        let path = tmp("clean.jsonl");
        write_store(&path, 3, "");
        let s: JsonlScan<Rec> = scan(&path).unwrap();
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records[2].id, 2);
        assert!(s.torn.is_none());
    }

    #[test]
    fn torn_tail_is_tolerated_and_reported() {
        let path = tmp("torn.jsonl");
        // A record chopped mid-object, as a killed O_APPEND writer leaves it.
        write_store(&path, 2, "{\"id\":2,\"na");
        let s: JsonlScan<Rec> = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        let torn = s.torn.expect("torn tail must be reported");
        assert_eq!(torn.line, 3);
        assert_eq!(torn.bytes, "{\"id\":2,\"na".len());
        assert!(
            torn.warning(&path).contains(":3:"),
            "{}",
            torn.warning(&path)
        );
    }

    #[test]
    fn every_chop_point_of_the_last_record_is_tolerated() {
        let path = tmp("chop.jsonl");
        let full = serde_json::to_string(&Rec {
            id: 9,
            name: "tail".into(),
        })
        .unwrap();
        for cut in 1..full.len() {
            write_store(&path, 2, &full[..cut]);
            let s: JsonlScan<Rec> = scan(&path).unwrap();
            assert_eq!(s.records.len(), 2, "cut at {cut}");
            assert!(s.torn.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let path = tmp("midfile.jsonl");
        let good = serde_json::to_string(&Rec {
            id: 1,
            name: "ok".into(),
        })
        .unwrap();
        std::fs::write(&path, format!("not json at all\n{good}\n")).unwrap();
        let err = scan::<Rec>(&path).unwrap_err();
        assert!(err.contains(":1:"), "{err}");
    }

    #[test]
    fn undecodable_bytes_are_a_read_error_wherever_they_sit() {
        let path = tmp("utf8.jsonl");
        let good = serde_json::to_string(&Rec {
            id: 1,
            name: "ok".into(),
        })
        .unwrap();
        for bytes in [
            [good.as_bytes(), b"\n\xff\xfe\n", good.as_bytes(), b"\n"].concat(),
            [good.as_bytes(), b"\n{\"id\":2,\xff"].concat(),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let err = scan::<Rec>(&path).unwrap_err();
            assert!(err.starts_with("read "), "{err}");
            assert!(read_lines(&path).unwrap_err().starts_with("read "));
        }
    }

    #[test]
    fn blank_lines_are_skipped_not_torn() {
        let path = tmp("blank.jsonl");
        write_store(&path, 2, "\n  \n");
        let s: JsonlScan<Rec> = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.torn.is_none());
    }
}
