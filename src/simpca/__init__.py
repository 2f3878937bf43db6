"""simpca: sparse components from rotated principal components.

Pipeline: principal components -> coefficient rotation (Crawford-Ferguson /
Orthomax family) -> per-component variable selection -> sparsification by
least-squares projection (with LS-SPCA and plain thresholding as
alternatives), with full variance-explained accounting.
"""

from .core import (
    DataMatrix,
    center_scale,
    solve_ls,
    svd,
    vif,
)
from .pca import (
    PcaModel,
    deflate,
    fit_pca,
    rescale_coefficients,
    vexp_of_component,
)
from .rotation import (
    RotationCriterion,
    RotationResult,
    cf_value,
    rotate,
)
from .selection import (
    SelectionStrategy,
    SupportSet,
    adaptive_threshold_support,
    backward_select,
    forward_select,
    iterative_reverse_threshold,
    stepwise_select,
    threshold_support,
)
from .sparse import (
    SimpcaPipelineConfig,
    SparseComponent,
    component_correlations,
    cspca_component,
    plain_threshold_component,
    project_component,
    run_simpca,
    uspca_component,
)
from .report import AnalysisReport, build_report, emit, ingest_csv

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "DataMatrix",
    "PcaModel",
    "RotationCriterion",
    "RotationResult",
    "SelectionStrategy",
    "SimpcaPipelineConfig",
    "SparseComponent",
    "SupportSet",
    "adaptive_threshold_support",
    "backward_select",
    "build_report",
    "center_scale",
    "cf_value",
    "component_correlations",
    "cspca_component",
    "deflate",
    "emit",
    "fit_pca",
    "forward_select",
    "ingest_csv",
    "iterative_reverse_threshold",
    "plain_threshold_component",
    "project_component",
    "rescale_coefficients",
    "rotate",
    "run_simpca",
    "solve_ls",
    "stepwise_select",
    "svd",
    "threshold_support",
    "uspca_component",
    "vexp_of_component",
    "vif",
]
