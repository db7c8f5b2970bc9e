//! Stage-by-stage replay of `run_pipeline` from the outside: the same
//! builder wiring and the same public calls, each under its own layer
//! span, so a traced op attributes its wall time to `som`, `cluster` and
//! the `linalg` kernels. The replay's outputs are compared with the
//! composite call's; a mismatch fails the run.

use hiermeans_cluster::{agglomerative, Dendrogram};
use hiermeans_core::pipeline::{PipelineConfig, PipelineResult};
use hiermeans_linalg::{distance, Matrix};
use hiermeans_som::{DecaySchedule, Grid, GridTopology, Som, SomBuilder};

use crate::spans::Tracer;

/// The SOM builder `run_pipeline` assembles from `config`.
pub fn pipeline_builder(config: &PipelineConfig) -> SomBuilder {
    let diameter = Grid::new(
        config.som_width.max(1),
        config.som_height.max(1),
        GridTopology::Rectangular,
    )
    .diameter();
    SomBuilder::new(config.som_width, config.som_height)
        .seed(config.seed)
        .epochs(config.epochs)
        .metric(config.metric)
        .sigma(DecaySchedule::Linear {
            start: diameter / 2.0,
            end: config.sigma_end,
        })
        .mode(config.training)
        .kernel_policy(config.kernel_policy)
        .warm_start(config.warm_start)
}

/// What the pipeline stage produces, for comparing a replay with the
/// composite call.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOut {
    pub positions: Matrix,
    pub dendrogram: Dendrogram,
}

impl PipelineOut {
    pub fn of(result: &PipelineResult) -> Self {
        PipelineOut {
            positions: result.positions().clone(),
            dendrogram: result.dendrogram().clone(),
        }
    }
}

/// Replays `run_pipeline(vectors, config)` under `som.train`,
/// `som.project` and `cluster.agglomerate` spans.
pub fn pipeline(
    tr: &Tracer,
    vectors: &Matrix,
    config: &PipelineConfig,
) -> Result<(Som, PipelineOut), String> {
    let som = tr
        .span("som.train", || pipeline_builder(config).train(vectors))
        .map_err(|e| format!("replay som.train: {e}"))?;
    let positions = tr
        .span("som.project", || som.project(vectors))
        .map_err(|e| format!("replay som.project: {e}"))?;
    let dendrogram = tr
        .span("cluster.agglomerate", || {
            agglomerative::cluster_with_strategy(
                &positions,
                config.metric,
                config.linkage,
                config.kernel_policy,
                config.agglomeration,
            )
        })
        .map_err(|e| format!("replay cluster.agglomerate: {e}"))?;
    Ok((
        som,
        PipelineOut {
            positions,
            dendrogram,
        },
    ))
}

/// Computed work of the two `linalg` kernels the pipeline leans on, for an
/// `n × dim` input clustered on 2-D map positions over a map of `units`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelWork {
    /// Cells of the `n × n` distance matrix.
    pub pairwise_cells: f64,
    /// Bytes the distance matrix writes plus the positions it reads.
    pub pairwise_bytes: f64,
    /// Floating-point operations of a direct Euclidean BMU search: one
    /// subtract, multiply and add per (row, unit, dimension).
    pub bmu_flops: f64,
}

/// Times the `linalg` kernels on an op's own data, outside the op: the
/// pairwise distance matrix over `positions` (as `cluster.agglomerate`
/// builds it) and a batch BMU search of `vectors` on the trained `som`.
pub fn kernels(
    tr: &Tracer,
    som: &Som,
    vectors: &Matrix,
    positions: &Matrix,
    config: &PipelineConfig,
) -> Result<KernelWork, String> {
    tr.span("linalg.pairwise", || {
        distance::pairwise_with_policy(positions, config.metric, config.kernel_policy)
    })
    .map_err(|e| format!("linalg.pairwise: {e}"))?;
    tr.span("linalg.bmu_batch", || som.bmu_batch(vectors))
        .map_err(|e| format!("linalg.bmu_batch: {e}"))?;
    let n = positions.nrows() as f64;
    let units = som.weights().nrows() as f64;
    Ok(KernelWork {
        pairwise_cells: n * n,
        pairwise_bytes: 8.0 * (n * n + n * positions.ncols() as f64),
        bmu_flops: 3.0 * vectors.nrows() as f64 * units * vectors.ncols() as f64,
    })
}
