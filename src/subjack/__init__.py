"""Subsampled jackknife estimation for large on-disk datasets.

Draws many small with-replacement subsamples from a fixed-width binary file,
jackknife-debiases the plug-in estimate inside each subsample, and averages
across subsamples, with a resampling-based standard error and normal
confidence interval. A Monte Carlo harness scores bias, coverage, and
standard-error accuracy, and a benchmark contrasts with- and
without-replacement sampling costs.
"""

from .bench import BenchResult, bench_sampling
from .estimator import (
    DomainEvalError,
    EstimateReport,
    SubsampleResult,
    aggregate,
    confidence_interval,
    jackknife_chunk,
    jackknife_subsample,
    normal_quantile,
    summarize,
)
from .pipeline import run_estimate
from .sampling import (
    RNG_ID,
    ExclusionSet,
    draw_chunk,
    draw_with_replacement,
    draw_without_replacement,
    subsample_seed,
    subsample_seeds,
)
from .simulate import (
    ExperimentConfig,
    ReplicationMetrics,
    generate_bivariate_normal,
    replication_seed,
    run_replications,
)
from .stats import (
    Statistic,
    parse_statistic,
    stat_correlation,
    stat_kurtosis,
    stat_mean,
    stat_sd,
    stat_variance,
)
from .store import (
    DatasetHandle,
    DatasetHeader,
    RecordBatch,
    StoreError,
    convert_csv,
    open_dataset,
    signed_log,
    write_blocks,
    write_matrix,
)

__version__ = "0.1.0"
