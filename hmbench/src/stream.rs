//! `stream`: 65,536 mixture rows (dim 8) spooled to a `CharVecFile` in
//! set-up; an op is `SomBuilder::train_stream` over that file — 16×16 map,
//! 2 batch epochs, default warm start.
//!
//! Why: the only path through `RowSource` I/O and the out-of-core trainer,
//! whose point is bounded memory. Without it, merging the resident and
//! streaming SOM loops could slow this path unseen. Reads come from the
//! page cache, so `workload.load_rows` is a small share of an op: an I/O
//! change should leave `op_ms_p50` here about where it was.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hiermeans_linalg::rows::{RowSource, RowSourceError};
use hiermeans_linalg::Matrix;
use hiermeans_obs::{Collector, ObsConfig};
use hiermeans_som::{Initializer, Som, SomBuilder, TrainingMode};
use hiermeans_workload::stream::{CharVecFile, SyntheticRowSource};
use hiermeans_workload::synthetic::MixtureSpec;

use crate::spans::{Tracer, OP};
use crate::{ms_since, Mode, Samples, Workload};

pub const ROWS: usize = 65_536;
pub const DIM: usize = 8;
const K: usize = 8;
const MAP_SIDE: usize = 16;
const EPOCHS: usize = 2;

/// A `RowSource` wrapper that records a `workload.load_rows` span per strip
/// and counts strips and bytes; it forwards every call unchanged.
pub struct TimedSource<'a, S> {
    pub inner: S,
    pub tracer: &'a Tracer,
    pub strips: u64,
    pub bytes: u64,
}

impl<'a, S: RowSource> TimedSource<'a, S> {
    pub fn new(inner: S, tracer: &'a Tracer) -> Self {
        TimedSource {
            inner,
            tracer,
            strips: 0,
            bytes: 0,
        }
    }
}

impl<S: RowSource> RowSource for TimedSource<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn load_rows(
        &mut self,
        start: usize,
        count: usize,
        out: &mut [f64],
    ) -> Result<(), RowSourceError> {
        let inner = &mut self.inner;
        self.tracer
            .span("workload.load_rows", || inner.load_rows(start, count, out))?;
        self.strips += 1;
        self.bytes += std::mem::size_of_val(out) as u64;
        Ok(())
    }
}

/// The trainer every op runs: defaults apart from map size, batch mode and
/// epochs.
pub fn builder(seed: u64) -> SomBuilder {
    SomBuilder::new(MAP_SIDE, MAP_SIDE)
        .mode(TrainingMode::Batch)
        .epochs(EPOCHS)
        .seed(seed)
}

pub struct Stream {
    path: PathBuf,
    builder: SomBuilder,
    /// The resident trainer's codebook on the same rows.
    reference: Option<Matrix>,
    /// Strips and bytes one replayed op read.
    io: (u64, u64),
}

/// Reads a whole `CharVecFile` into a resident matrix.
fn load_all(path: &Path) -> Result<Matrix, String> {
    let mut f = CharVecFile::open(path).map_err(|e| e.to_string())?;
    let (n, dim) = (f.nrows(), f.ncols());
    let mut data = vec![0.0; n * dim];
    f.load_rows(0, n, &mut data).map_err(|e| e.to_string())?;
    Matrix::from_vec(n, dim, data).map_err(|e| e.to_string())
}

impl Stream {
    fn open(&self) -> Result<CharVecFile, String> {
        CharVecFile::open(&self.path).map_err(|e| format!("stream: {e}"))
    }

    /// Trains resident and streamed on the spooled rows once; they must
    /// agree bit for bit.
    fn verify(&mut self) -> Result<(), String> {
        let rows = load_all(&self.path)?;
        // Streaming falls back from PCA-plane to random initialization (PCA
        // needs the resident matrix); the resident trainer is bitwise equal
        // to it under random initialization.
        let resident = self
            .builder
            .clone()
            .initializer(Initializer::Random)
            .train(&rows)
            .map_err(|e| format!("stream resident: {e}"))?;
        let mut file = self.open()?;
        let streamed = self
            .builder
            .train_stream(&mut file)
            .map_err(|e| format!("stream: {e}"))?;
        if streamed.weights() != resident.weights() {
            return Err("stream: streamed codebook is not bitwise the resident one".to_owned());
        }
        self.reference = Some(resident.weights().clone());
        Ok(())
    }

    fn check(&self, som: Result<Som, String>) -> Result<(), String> {
        let som = som?;
        match &self.reference {
            Some(reference) if som.weights() == reference => Ok(()),
            _ => Err("stream: codebook differs from the resident trainer's".to_owned()),
        }
    }

    fn timed(&mut self, mode: Mode, samples: &mut Samples) {
        if self.reference.is_none() {
            let verified = self.verify();
            samples.record(verified);
        }
        let som = samples.time(mode, || {
            let mut file = self.open()?;
            match mode {
                Mode::Plain => self.builder.train_stream(&mut file),
                Mode::Collector => {
                    let collector = Collector::enabled_with(ObsConfig {
                        memory: true,
                        ..ObsConfig::default()
                    });
                    let som = self.builder.train_stream_traced(&mut file, &collector);
                    drop(collector.report());
                    som
                }
            }
            .map_err(|e| format!("stream: {e}"))
        });
        samples.record(self.check(som));
    }
}

impl Workload for Stream {
    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let path = dir.join("stream.charvec");
        let mut source = SyntheticRowSource::new(MixtureSpec::separated(ROWS, DIM, K, seed))
            .map_err(|e| format!("stream mixture: {e}"))?;
        CharVecFile::copy_from(&path, &mut source).map_err(|e| format!("stream spool: {e}"))?;
        Ok(Stream {
            path,
            builder: builder(seed),
            reference: None,
            io: (0, 0),
        })
    }

    fn round(&mut self, k: usize, samples: &mut Samples) {
        for mode in Mode::order(k) {
            self.timed(mode, samples);
        }
    }

    fn replay(&mut self, tr: &Tracer, samples: &mut Samples) {
        tr.begin_op();
        let t = Instant::now();
        let som = tr.span(OP, || {
            let file = self.open()?;
            let mut timed = TimedSource::new(file, tr);
            let som = tr.span("som.stream_train", || self.builder.train_stream(&mut timed));
            self.io = (timed.strips, timed.bytes);
            som.map_err(|e| format!("stream: {e}"))
        });
        samples.replay_op_ms.push(ms_since(t));
        samples.record(self.check(som));
    }

    fn layer_metrics(&self, _tracer: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("workload.strips", self.io.0 as f64),
            ("workload.bytes_read", self.io.1 as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrapper is transparent: the same codebook bits as the
    /// unwrapped source.
    #[test]
    fn timed_source_is_transparent() {
        let spec = MixtureSpec::separated(5000, 4, 3, 11);
        let b = SomBuilder::new(6, 6)
            .mode(TrainingMode::Batch)
            .epochs(3)
            .initializer(Initializer::Random)
            .seed(5);
        let plain = b
            .train_stream(&mut SyntheticRowSource::new(spec.clone()).unwrap())
            .unwrap();
        let tr = Tracer::default();
        let mut timed = TimedSource::new(SyntheticRowSource::new(spec).unwrap(), &tr);
        let wrapped = b.train_stream(&mut timed).unwrap();
        assert_eq!(plain.weights(), wrapped.weights());
        assert!(timed.strips > 0);
        assert_eq!(timed.bytes % (4 * 8) as u64, 0);
        assert_eq!(
            tr.durations_ms("workload.load_rows").len() as u64,
            timed.strips
        );
    }
}
