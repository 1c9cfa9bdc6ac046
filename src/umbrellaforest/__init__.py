"""Directed spanning forests with short trees on lattice windows, and the
uniformly elliptic trapping environments built from them.

Layers, bottom to top: lattice geometry, the heavy-tailed umbrella-length
field, forest construction, branch/insulation measurements, pruning into
disjoint ray systems, per-ray tube environments with exact exit-time
dynamic programming, patched global environments, Monte Carlo walkers, and
cross-cutting statistics.  Every windowed quantity carries explicit
censoring instead of pretending the lattice ends at the window.
"""

from .lattice import Box, Direction, Site, Window, l1_norm, min_sphere_ratio, \
    orthant_sphere_count, sphere_count, umbrella_side
from .fieldgen import LField, ModelParams, default_params, generate_field, \
    sample_length, validate_params
from .forest import Forest, axes_at, build_forest, choose_direction, \
    example1_forest, lambda_at
from .metrics import StatusField, TailEstimate, compute_h, \
    compute_insulation_sup, interior_mask, ray, tail_estimate
from .pruning import FRONTIER, IN, OUT, UNKNOWN, check_disjoint, insulate, \
    leaves, prune_to_infinite, tilde_membership
from .raygeom import InsulationConstants, RayHandle, build_rays, \
    drift_directions, ellipticity_constant, score_and_index, \
    solve_insulation_constants, tube_geometries, tube_geometry
from .environment import ExitStats, PatchedEnv, exit_functionals, patch, \
    ray_environment, ray_environments, ray_row, supermartingale_residuals, \
    tube_row, uniform_row
from .walker import TrapEstimate, WalkConfig, run_walks, step, trap_probability
from .stats import exponent_fit, load_report, assemble_report, \
    mixing_covariance, wilson_interval
from .pipeline import PrunedPair, build_patched, \
    build_pruned_pair, select_rays, tail_experiment, trap_experiment

__version__ = "0.1.0"
