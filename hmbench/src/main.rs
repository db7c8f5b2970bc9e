//! The hiermeans benchmark: one command that generates a workload from a
//! seed, drives it as a closed loop with one caller, checks every output,
//! and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path hmbench/Cargo.toml -- \
//!     --workload <paper|corpus|fleet|stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that also replays each op stage by stage under the benchmark's own
//! spans and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! README.md next to this package explains the workloads and which layer
//! metric should move which end-to-end metric.

mod corpus;
mod fleet;
mod paper;
mod replay;
mod spans;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hiermeans_linalg::parallel;
use hiermeans_obs::history::BenchMeta;

use spans::Tracer;

/// The same tracking allocator `repro` installs, so the program's
/// memory telemetry (on in the traced ops, as in `repro trace`)
/// costs here what it costs there.
#[global_allocator]
static ALLOC: hiermeans_obs::memhook::TrackingAlloc = hiermeans_obs::memhook::TrackingAlloc;

/// Set-ups per run: at least `SETUP_REPS.0`, and more while they have taken
/// less than `SETUP_MIN_S` in all, up to `SETUP_REPS.1`. `setup_s` is
/// their median; a set-up of a few milliseconds needs many repetitions
/// for a steady median.
const SETUP_REPS: (usize, usize) = (5, 200);
const SETUP_MIN_S: f64 = 0.25;

/// Where runs keep scratch files, result stamps and span dumps, relative
/// to the directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms_p50", "ms"),
    ("traced_op_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload; a
/// layer the workload's op never calls reads `0`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workload.simulate_ms", "ms"),
    ("workload.characterize_ms", "ms"),
    ("workload.load_rows_ms", "ms"),
    ("workload.strips", "count"),
    ("workload.bytes_read", "bytes"),
    ("som.train_ms", "ms"),
    ("som.project_ms", "ms"),
    ("som.stream_train_ms", "ms"),
    ("linalg.pairwise_ms", "ms"),
    ("linalg.pairwise_cells", "count"),
    ("linalg.pairwise_bytes", "bytes"),
    ("linalg.bmu_batch_ms", "ms"),
    ("linalg.bmu_flops", "count"),
    ("cluster.agglomerate_ms", "ms"),
    ("cluster.cut_ms", "ms"),
    ("cluster.merges", "count"),
    ("cluster.rand_index", "ratio"),
    ("core.score_ms", "ms"),
    ("core.recommend_k_ms", "ms"),
    ("fleet.model_ms", "ms"),
    ("fleet.fold_ms", "ms"),
    ("store.ingest_batch_ms_first", "ms"),
    ("store.ingest_batch_ms_last", "ms"),
    ("store.ingest_growth", "ratio"),
    ("store.query_ms", "ms"),
    ("store.fsck_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.append_ms_p50", "ms"),
    ("store.bytes_per_accepted", "bytes"),
    ("store.accepted", "count"),
    ("store.quarantined.duplicate", "count"),
    ("store.quarantined.outlier", "count"),
    ("store.quarantined.checksum", "count"),
    ("store.quarantined.malformed", "count"),
    ("obs.trace_tax_pct", "%"),
    ("bench.span_coverage_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.replay_ops", "count"),
];

/// Per-layer metrics read straight off the replay spans: the median, over
/// replayed ops, of the op's summed self time in the named span.
const SELF_TIME: [(&str, &str); 12] = [
    ("workload.simulate_ms", "workload.simulate"),
    ("workload.characterize_ms", "workload.characterize"),
    ("workload.load_rows_ms", "workload.load_rows"),
    ("som.train_ms", "som.train"),
    ("som.project_ms", "som.project"),
    ("som.stream_train_ms", "som.stream_train"),
    ("linalg.pairwise_ms", "linalg.pairwise"),
    ("linalg.bmu_batch_ms", "linalg.bmu_batch"),
    ("cluster.agglomerate_ms", "cluster.agglomerate"),
    ("cluster.cut_ms", "cluster.cut"),
    ("core.score_ms", "core.score"),
    ("core.recommend_k_ms", "core.recommend_k"),
];

const USAGE: &str =
    "usage: hmbench --workload <paper|corpus|fleet|stream> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let number = |k: &str| -> Result<u64, String> {
        let v = get(k)?;
        v.parse()
            .map_err(|_| format!("{k} takes a whole number, got {v:?}"))
    };
    let workload = get("--workload")?.to_owned();
    if !["paper", "corpus", "fleet", "stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Which of the program's own telemetry settings an op runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The program's defaults: its `Collector` disabled.
    Plain,
    /// The program's `Collector` enabled as the matching `repro` command
    /// enables it (`repro trace` for the pipeline workloads, `repro
    /// submit` for the fleet).
    Collector,
}

impl Mode {
    /// The order of the two kinds of op in round `k`: plain first when `k`
    /// is even, traced first when it is odd, so neither kind always runs
    /// in the state the other leaves behind.
    pub fn order(k: usize) -> [Mode; 2] {
        if k.is_multiple_of(2) {
            [Mode::Plain, Mode::Collector]
        } else {
            [Mode::Collector, Mode::Plain]
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each plain op, ms.
    pub op_ms: Vec<f64>,
    /// Wall time of each op with the program's collector on, ms.
    pub traced_op_ms: Vec<f64>,
    /// Wall time of each stage-by-stage replay under the benchmark's
    /// spans, ms (traced runs only).
    pub replay_op_ms: Vec<f64>,
    /// Workload-specific timings for the summary, e.g. the fleet's query.
    pub extra: BTreeMap<&'static str, Vec<f64>>,
    /// Ops attempted, and how many returned an error or failed a check.
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Samples {
    /// Counts one attempted op and whether it passed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    fn push(&mut self, mode: Mode, ms: f64) {
        match mode {
            Mode::Plain => self.op_ms.push(ms),
            Mode::Collector => self.traced_op_ms.push(ms),
        }
    }

    /// Times `op` as one op of `mode`; its result is checked afterwards,
    /// outside the timed region.
    pub fn time<T>(&mut self, mode: Mode, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = op();
        self.push(mode, ms_since(t));
        out
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One benchmark workload. The loop is closed with a single caller: each
/// op starts when the previous one returned.
pub trait Workload: Sized {
    /// Generates the inputs from `seed` and prepares the program state the
    /// ops start from. Timed: `setup_s`.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// Round `k`: a plain op and the same op with the program's collector
    /// on, in [`Mode::order`], each timed into `samples` and then checked.
    /// The fleet runs a whole pass instead, submitting each batch to a
    /// plain and a traced store in turn, because its ops share a growing
    /// store.
    fn round(&mut self, k: usize, samples: &mut Samples);

    /// The same op replayed stage by stage under the benchmark's spans.
    fn replay(&mut self, tracer: &Tracer, samples: &mut Samples);

    /// Per-layer metrics the workload measures beyond span self times.
    fn layer_metrics(&self, _tracer: &Tracer) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Extra summary lines (workload-specific end-to-end timings).
    fn summary(&self, _samples: &Samples) -> Vec<String> {
        Vec::new()
    }
}

struct RunResult {
    samples: Samples,
    metrics: BTreeMap<&'static str, f64>,
    summary: Vec<String>,
}

fn drive<W: Workload>(args: &Args, dir: &Path) -> Result<RunResult, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        let t = Instant::now();
        workload = Some(W::setup(args.seed, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.ok_or("no set-up ran")?;
    // One untimed round lets lazy set-up finish and fixes the reference
    // outputs later ops are compared with; its checks still count.
    let mut warm = Samples::default();
    w.round(0, &mut warm);
    let mut samples = Samples {
        attempted: warm.attempted,
        failed: warm.failed,
        failures: warm.failures,
        ..Samples::default()
    };

    // A round that starts before the deadline runs to its end, followed
    // (in a traced run) by one replay.
    let tracer = args.trace.then(Tracer::default);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for k in 0.. {
        if !samples.op_ms.is_empty() && Instant::now() >= deadline {
            break;
        }
        w.round(k, &mut samples);
        if let Some(tr) = &tracer {
            w.replay(tr, &mut samples);
        }
    }

    let median = |v: &[f64]| stats::median(v).ok_or("no op completed");
    let op = median(&samples.op_ms)?;
    let traced = median(&samples.traced_op_ms)?;
    let mut metrics = BTreeMap::new();
    metrics.insert("op_ms_p50", op);
    metrics.insert("traced_op_ratio", traced / op);
    metrics.insert("peak_rss_mb", peak_rss_mb()?);
    metrics.insert("setup_s", median(&setup_s)?);
    if let Some(tr) = &tracer {
        for (name, _) in PER_LAYER {
            metrics.insert(name, 0.0);
        }
        for (metric, span) in SELF_TIME {
            metrics.insert(metric, tr.median_self_ms(span));
        }
        let replay = median(&samples.replay_op_ms)?;
        metrics.insert("obs.trace_tax_pct", 100.0 * (traced / op - 1.0));
        metrics.insert("bench.trace_overhead_pct", 100.0 * (replay / op - 1.0));
        metrics.insert("bench.span_coverage_pct", tr.span_coverage_pct());
        metrics.insert("bench.replay_ops", samples.replay_op_ms.len() as f64);
        metrics.extend(w.layer_metrics(tr));
        let path =
            Path::new(WORK_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)?;
    }
    let mut summary = vec![
        format!(
            "ops: {} plain, {} with the program's collector, {} replayed",
            samples.op_ms.len(),
            samples.traced_op_ms.len(),
            samples.replay_op_ms.len()
        ),
        format!("op_ms_p90 = {}", tail(&samples.op_ms, 90.0)),
        format!("traced_op_ms_p50 = {traced:.3} ms"),
    ];
    summary.extend(w.summary(&samples));
    Ok(RunResult {
        samples,
        metrics,
        summary,
    })
}

/// A tail percentile for the summary, or why it is not reported.
pub fn tail(samples: &[f64], q: f64) -> String {
    match stats::tail_percentile(samples, q) {
        Some(v) => format!("{v:.3} ms (n = {})", samples.len()),
        None => format!(
            "n/a (n = {}; p{q} needs {} samples beyond it)",
            samples.len(),
            stats::TAIL_MIN_BEYOND
        ),
    }
}

/// Every timed sample of the run, for explaining a result after the fact.
fn samples_json(s: &Samples) -> String {
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(","))
    };
    let mut out = format!(
        "{{\"op\":{},\"traced_op\":{},\"replay_op\":{}",
        list(&s.op_ms),
        list(&s.traced_op_ms),
        list(&s.replay_op_ms)
    );
    for (name, v) in &s.extra {
        let _ = write!(out, ",\"{name}\":{}", list(v));
    }
    out.push('}');
    out
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_owned())
}

fn provenance(args: &Args) -> String {
    let meta = BenchMeta::capture();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = parallel::worker_count();
    let class = if nproc <= 2 {
        "small host (<= 2 CPUs): not evidence of parallel speedup"
    } else {
        "multi-core host"
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"meta\":{},\"nproc\":{nproc},\"workers\":{workers},\"host_class\":\"{class}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        serde_json::to_string(&meta).unwrap_or_else(|_| "null".to_owned()),
    )
}

/// The result line: `correct`, `attempted`, `failed`, and the reported
/// metrics with their units.
fn result_line(run: &RunResult, trace: bool) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = run
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let s = &run.samples;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        s.failed == 0 && s.attempted > 0,
        s.attempted,
        s.failed
    ))
}

fn run(args: &Args) -> Result<(RunResult, String), String> {
    let dir: PathBuf = Path::new(WORK_DIR).join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = match args.workload.as_str() {
        "paper" => drive::<paper::Paper>(args, &dir),
        "corpus" => drive::<corpus::Corpus>(args, &dir),
        "fleet" => drive::<fleet::Fleet>(args, &dir),
        "stream" => drive::<stream::Stream>(args, &dir),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let result = result?;
    let line = result_line(&result, args.trace)?;
    Ok((result, line))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = provenance(&args);
    println!("# provenance {stamp}");
    match run(&args) {
        Ok((result, line)) => {
            for l in &result.summary {
                println!("# {l}");
            }
            let s = &result.samples;
            println!(
                "# error_rate = {} ({} failed of {} attempted)",
                s.failed as f64 / s.attempted.max(1) as f64,
                s.failed,
                s.attempted
            );
            for f in &s.failures {
                println!("# FAILED: {f}");
            }
            let stamp_path = Path::new(WORK_DIR).join(format!(
                "result-{}-seed{}-trace{}.json",
                args.workload,
                args.seed,
                u8::from(args.trace)
            ));
            let record = format!(
                "{{\"provenance\":{stamp},\"result\":{line},\"samples_ms\":{}}}\n",
                samples_json(s)
            );
            if let Err(e) = std::fs::write(&stamp_path, record) {
                eprintln!("hmbench: writing {}: {e}", stamp_path.display());
            }
            println!("{line}");
            if s.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fleet".to_owned(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "paper",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "paper",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[derive(serde::Deserialize)]
    struct Metric {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Benchmark {
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: Benchmark = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names(&doc.end_to_end), own(&END_TO_END));
        assert_eq!(names(&doc.per_layer), own(&PER_LAYER));
    }
}
