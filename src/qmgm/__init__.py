"""Sparse conditional-dependence graphs over mixed continuous/discrete
variables via penalized mid-quantile neighborhood regressions."""

from .analysis import CentralityReport, centrality, hamming_distance, knn_impute
from .benchmark import (BenchmarkRun, DgpVariant, LearnerConfig, RecoveryMetrics,
                        confusion_metrics, default_lambda_grid, generate_sample,
                        roc_curve, run_replications, true_graph)
from .core import (CoefficientCube, DataError, Dataset, EstimatedGraph,
                   QuantileGrid, VariableSpec, quantile_loss, standard_levels,
                   validate_and_standardize)
from .io import (GraphDocument, document_from_adjacency, document_from_graph,
                 export_graph, load_csv, load_schema, parse_schema, save_csv)
from .mgm import deviance_losses, fit_mgm, glm_deviance
from .midcdf import (ThresholdLogitSet, fit_threshold_logits,
                     marginal_mid_quantile, rearrange_monotone)
from .penalized import (NodeProblem, fit_lambda_paths,
                        inverse_midquantile_targets, penalized_wls)
from .selection import (SelectionCriterion, build_problems, estimate_edge_set,
                        fit_qmgm, quantile_losses, score_path, select_lambda)

__version__ = "0.1.0"
