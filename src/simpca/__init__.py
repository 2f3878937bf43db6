"""simpca: sparse components from rotated principal components.

Pipeline: principal components -> coefficient rotation (Crawford-Ferguson /
Orthomax family) -> per-component variable selection -> sparsification by
least-squares projection (with LS-SPCA and plain thresholding as
alternatives), with full variance-explained accounting.

The names below are the library's surface; every other public name is
imported from its module (``simpca.core.svd``, ``simpca.pca.deflate``, ...).
"""

from .core import center_scale
from .pca import fit_pca
from .report import ingest_csv
from .rotation import RotationCriterion, cf_value, rotate
from .selection import SelectionStrategy, forward_select
from .sparse import (
    SimpcaPipelineConfig,
    component_correlations,
    cspca_component,
    plain_threshold_component,
    project_component,
    run_simpca,
    uspca_component,
)

__version__ = "0.1.0"

__all__ = [
    "RotationCriterion",
    "SelectionStrategy",
    "SimpcaPipelineConfig",
    "center_scale",
    "cf_value",
    "component_correlations",
    "cspca_component",
    "fit_pca",
    "forward_select",
    "ingest_csv",
    "plain_threshold_component",
    "project_component",
    "rotate",
    "run_simpca",
    "uspca_component",
]
