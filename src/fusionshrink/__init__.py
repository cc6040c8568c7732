"""Dynamic low-rank mean estimation with fused global-local shrinkage.

Latent factor paths follow Gaussian random walks whose per-transition
variances carry horseshoe-type shrinkage, so consecutive positions fuse
unless the data demand a jump.  One coordinate-ascent engine covers
Gaussian matrices, binary symmetric networks, and order-3 Gaussian
tensors.
"""
from .baselines import (
    cp_als,
    cp_per_time,
    cv_fused_lasso,
    fused_lasso_1d,
    fused_lasso_matrix,
    fused_lasso_svd,
    l1_trendfilter_pg,
    svd_per_time,
    svd_windowed_all,
)
from .chain import DegeneratePosteriorError
from .dataio import load_dataset, load_fit_factors, save_dataset, save_fit, write_results_csv
from .engine import CaviEngine, FitResult, ModelConfig, fit
from .likelihoods import ObservationSet
from .metrics import auc, discrepancy_matrix, pcc, rmse, transition_norm_heatmap
from .postprocess import (
    align_modes,
    kmeans_rows,
    misclustering_loss,
    rand_index,
    row_normalize,
    sequential_align,
    solve_procrustes,
)
from .simulate import (
    SyntheticDataset,
    gen_case1,
    gen_case2_network,
    gen_case3_tensor,
    gen_cluster_case,
    gen_two_movers,
)

__all__ = [
    "CaviEngine",
    "DegeneratePosteriorError",
    "FitResult",
    "ModelConfig",
    "ObservationSet",
    "SyntheticDataset",
    "align_modes",
    "auc",
    "cp_als",
    "cp_per_time",
    "cv_fused_lasso",
    "discrepancy_matrix",
    "fit",
    "fused_lasso_1d",
    "fused_lasso_matrix",
    "fused_lasso_svd",
    "gen_case1",
    "gen_case2_network",
    "gen_case3_tensor",
    "gen_cluster_case",
    "gen_two_movers",
    "kmeans_rows",
    "l1_trendfilter_pg",
    "load_dataset",
    "load_fit_factors",
    "misclustering_loss",
    "pcc",
    "rand_index",
    "rmse",
    "row_normalize",
    "save_dataset",
    "save_fit",
    "sequential_align",
    "solve_procrustes",
    "svd_per_time",
    "svd_windowed_all",
    "transition_norm_heatmap",
    "write_results_csv",
]

__version__ = "0.1.0"
