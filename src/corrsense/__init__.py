"""corrsense: seedable 2-D sensor-field simulator.

Builds deployments of cluster heads and normal nodes, partitions them by
nearest head, and estimates each cluster's normalized data accuracy for a
spatially correlated Gaussian phenomenon, by closed form and by Monte
Carlo simulation of the full observation chain.
"""

from ._version import __version__
from .accuracy import (AccuracyReport, BetaFactors, EstimateSet, NoiseModel,
                       ReadingSample, accuracy_for_assignment, beta_factors,
                       closed_form_accuracy, estimate, monte_carlo_accuracy,
                       reports_to_csv, reports_to_json, simulate_reading)
from .clustering import (Cluster, ClusterAssignment, ClusterGeometry,
                         assign_clusters, assignment_kernel_diagnostics,
                         assignment_to_csv, cluster_geometry,
                         geometry_from_points)
from .deployment import (Deployment, FieldSpec, Node, NodeKind, Position,
                         TracingPoint, assign_tracing_points,
                         build_grid_deployment, deploy_grid_heads,
                         deploy_random_normals, deployment_from_text,
                         deployment_to_text, place_nodes)
from .errors import (DegenerateWindowError, DuplicateNodeError,
                     InvalidConfigError, LengthMismatchError,
                     MissingTracingPointError, NoHeadsError, NoPlateauError,
                     NonFiniteCoordinateError, NotPositiveDefiniteError,
                     OutOfFieldError, SimulationError, SweepInvariantError,
                     UnknownNodeError)
from .experiments import (ExperimentConfig, SweepPoint, SweepResult,
                          circle_cluster, default_config, find_optimal_cluster,
                          grid_cluster, run_experiment_csv, run_experiment_json,
                          run_fig5, run_fig6, run_fig8, run_fig9, run_optimal,
                          run_setup1, run_setup2)
from .spatial_stats import (CorrelationParams, EmpiricalStats,
                            cluster_count_bound, empirical_correlation,
                            is_strongly_correlated, kernel, max_cluster_radius)
