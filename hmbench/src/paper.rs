//! `paper`: the paper's three studies (SAR counters on machines A and B,
//! method utilization) through `SuiteAnalysis::paper`, the path `repro
//! all` takes, with the default `PipelineConfig` (online 10×10 SOM, 200
//! epochs, naive complete linkage at n = 13). An op is one round of all
//! three studies.
//!
//! Why: it carries the paper pins, and SOM training is nearly all of its
//! wall time while clustering is tiny and the store is never touched — it
//! shows SOM gains and is the no-change control for cluster and store
//! work. The studies' inputs are the paper's; the seed only rotates the
//! order a round runs them in.

use std::path::Path;
use std::time::Instant;

use hiermeans_core::analysis::{paper_vectors, recommend_k, SuiteAnalysis, K_RANGE};
use hiermeans_core::means::Mean;
use hiermeans_core::pipeline::PipelineConfig;
use hiermeans_core::score::ScoreTable;
use hiermeans_obs::{Collector, ObsConfig};
use hiermeans_workload::execution::{ExecutionSimulator, SpeedupTable};
use hiermeans_workload::measurement::{Characterization, SCIMARK2};
use hiermeans_workload::BenchmarkSuite;

use crate::replay::{self, KernelWork, PipelineOut};
use crate::spans::{Tracer, OP};
use crate::{ms_since, Mode, Samples, Workload};

/// One study's outputs.
#[derive(Debug, Clone, PartialEq)]
struct StudyOut {
    pipeline: PipelineOut,
    scores: ScoreTable,
    recommended_k: usize,
}

impl StudyOut {
    fn of(a: &SuiteAnalysis) -> Self {
        StudyOut {
            pipeline: PipelineOut::of(a.pipeline()),
            scores: a.scores().clone(),
            recommended_k: a.recommended_k(),
        }
    }
}

pub struct Paper {
    studies: Vec<Characterization>,
    /// Per study: the simulated speedups and characteristic vectors.
    inputs: Vec<(SpeedupTable, hiermeans_linalg::Matrix)>,
    reference: Option<Vec<StudyOut>>,
    fingerprints: Option<Vec<String>>,
    kernel_work: Option<KernelWork>,
}

/// The collector `repro trace` runs each study under.
fn trace_collector() -> Collector {
    Collector::enabled_with(ObsConfig {
        memory: true,
        ..ObsConfig::default()
    })
}

/// Whether some cut `k ∈ 2..=8` has a cluster of exactly SciMark2's five
/// kernels — the paper's headline finding.
fn scimark_exclusive(out: &StudyOut) -> bool {
    let mut sm = SCIMARK2.to_vec();
    sm.sort_unstable();
    K_RANGE.into_iter().any(|k| {
        out.pipeline.dendrogram.cut_into(k).is_ok_and(|cut| {
            cut.clusters().into_iter().any(|mut c| {
                c.sort_unstable();
                c == sm
            })
        })
    })
}

impl Paper {
    /// Checks a round's outputs against the study pins and the reference
    /// round; the first round becomes the reference.
    fn check(&mut self, outs: Vec<StudyOut>) -> Result<(), String> {
        match &self.reference {
            Some(reference) if *reference != outs => {
                Err("paper: outputs differ from the reference round".to_owned())
            }
            Some(_) => Ok(()),
            None => {
                for (ch, out) in self.studies.iter().zip(&outs) {
                    if !scimark_exclusive(out) {
                        return Err(format!(
                            "paper {ch}: SciMark2 never forms an exclusive cluster"
                        ));
                    }
                }
                self.reference = Some(outs);
                Ok(())
            }
        }
    }

    fn check_inputs(&self, analyses: &[SuiteAnalysis]) -> Result<(), String> {
        for (a, (speedups, vectors)) in analyses.iter().zip(&self.inputs) {
            if a.speedups() != speedups || a.vectors().matrix() != vectors {
                return Err("paper: study inputs differ from set-up's".to_owned());
            }
        }
        Ok(())
    }

    fn timed(&mut self, mode: Mode, samples: &mut Samples) {
        let mut fingerprints = Vec::new();
        let analyses = samples.time(mode, || {
            self.studies
                .iter()
                .map(|&ch| match mode {
                    Mode::Plain => SuiteAnalysis::paper(ch),
                    Mode::Collector => {
                        let collector = trace_collector();
                        let a = SuiteAnalysis::paper_with(ch, &collector);
                        fingerprints.push(collector.report().map(|r| r.fingerprint()));
                        a
                    }
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let outcome = analyses
            .map_err(|e| format!("paper: {e}"))
            .and_then(|analyses| {
                self.check_inputs(&analyses)?;
                self.check(analyses.iter().map(StudyOut::of).collect())
            })
            .and_then(|()| {
                if mode == Mode::Plain {
                    return Ok(());
                }
                let fps: Vec<String> = fingerprints
                    .into_iter()
                    .collect::<Option<_>>()
                    .ok_or("paper: an enabled collector gave no report")?;
                match &self.fingerprints {
                    Some(reference) if *reference != fps => {
                        Err("paper: trace fingerprints differ between rounds".to_owned())
                    }
                    Some(_) => Ok(()),
                    None => {
                        self.fingerprints = Some(fps);
                        Ok(())
                    }
                }
            });
        samples.record(outcome);
    }
}

impl Workload for Paper {
    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let mut studies = Characterization::paper_set().to_vec();
        studies.rotate_left((seed % 3) as usize);
        let inputs = studies
            .iter()
            .map(|&ch| {
                let speedups = ExecutionSimulator::paper()
                    .speedup_table()
                    .map_err(|e| format!("paper: simulating: {e}"))?;
                let vectors = paper_vectors(ch, &Collector::disabled())
                    .map_err(|e| format!("paper: characterizing {ch}: {e}"))?;
                Ok((speedups, vectors.matrix().clone()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Paper {
            studies,
            inputs,
            reference: None,
            fingerprints: None,
            kernel_work: None,
        })
    }

    fn round(&mut self, k: usize, samples: &mut Samples) {
        for mode in Mode::order(k) {
            self.timed(mode, samples);
        }
    }

    /// One round replayed stage by stage under the benchmark's spans.
    fn replay(&mut self, tr: &Tracer, samples: &mut Samples) {
        tr.begin_op();
        let config = PipelineConfig::default();
        let max_k = (*K_RANGE.end()).min(BenchmarkSuite::paper().len());
        let t = Instant::now();
        let replayed = tr.span(OP, || {
            self.studies
                .iter()
                .map(|&ch| -> Result<_, String> {
                    let speedups = tr
                        .span("workload.simulate", || {
                            ExecutionSimulator::paper().speedup_table()
                        })
                        .map_err(|e| e.to_string())?;
                    let vectors = tr
                        .span("workload.characterize", || {
                            paper_vectors(ch, &Collector::disabled())
                        })
                        .map_err(|e| e.to_string())?;
                    let (som, pipeline) = replay::pipeline(tr, vectors.matrix(), &config)?;
                    let scores = tr
                        .span("core.score", || {
                            ScoreTable::from_dendrogram(
                                &speedups,
                                &pipeline.dendrogram,
                                max_k,
                                Mean::Geometric,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    let recommended_k = tr
                        .span("core.recommend_k", || {
                            recommend_k(&pipeline.positions, &pipeline.dendrogram, max_k)
                        })
                        .map_err(|e| e.to_string())?;
                    Ok((
                        som,
                        vectors,
                        StudyOut {
                            pipeline,
                            scores,
                            recommended_k,
                        },
                    ))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        samples.replay_op_ms.push(ms_since(t));
        let outcome = replayed.and_then(|studies| {
            let mut work = KernelWork {
                pairwise_cells: 0.0,
                pairwise_bytes: 0.0,
                bmu_flops: 0.0,
            };
            for (som, vectors, out) in &studies {
                let w =
                    replay::kernels(tr, som, vectors.matrix(), &out.pipeline.positions, &config)?;
                work.pairwise_cells += w.pairwise_cells;
                work.pairwise_bytes += w.pairwise_bytes;
                work.bmu_flops += w.bmu_flops;
            }
            self.kernel_work = Some(work);
            let outs: Vec<StudyOut> = studies.into_iter().map(|(_, _, out)| out).collect();
            match &self.reference {
                Some(reference) if *reference == outs => Ok(()),
                _ => Err(
                    "paper: the stage-by-stage replay differs from SuiteAnalysis::paper".to_owned(),
                ),
            }
        });
        samples.record(outcome);
    }

    fn layer_metrics(&self, _tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let merges = self.reference.as_ref().map_or(0, |outs| {
            outs.iter()
                .map(|o| o.pipeline.dendrogram.merges().len())
                .sum::<usize>()
        });
        let mut m = vec![("cluster.merges", merges as f64)];
        if let Some(w) = self.kernel_work {
            m.extend([
                ("linalg.pairwise_cells", w.pairwise_cells),
                ("linalg.pairwise_bytes", w.pairwise_bytes),
                ("linalg.bmu_flops", w.bmu_flops),
            ]);
        }
        m
    }
}
