"""cutlab: sparse random graphs and biased tournaments near p = (1+eps)/n.

The package samples the supercritical giant component's 2-core model,
computes exact and polynomial-time cuts and distances to bipartiteness,
decides homomorphisms into odd cycles, colors random tournaments, and
reproduces the cubic scaling laws by seeded Monte Carlo.
"""

from .core_model import (
    CoreModelParams,
    DegreeProfile,
    ExpandedCore,
    KernelMultigraph,
    expand_paths,
    kernelize,
    sample_core_model,
    sample_degree_profile,
    sample_kernel,
    solve_mu,
)
from .cuts import (
    CutResult,
    dist_bp_exact,
    dist_bp_via_kernel,
    exact_maxcut,
    giant_cut_algorithm,
    min_bad_edges,
    odd_path_bipartization,
    sandwich_check,
)
from .errors import ConfigError, GuardLimitError
from .experiments import (
    ExperimentConfig,
    ScalingFit,
    TrialRecord,
    emit_plot_data,
    fit_power_law,
    run_experiment,
)
from .graph import (
    CoreDecomposition,
    GiantDecomposition,
    KernelChains,
    SparseGraph,
    connected_components,
    decompose_giant,
    is_bipartite,
    kernel_paths,
    odd_girth,
    read_edge_list,
    two_core,
    write_edge_list,
)
from .hom import HomWitness, ell_epsilon, hom_to_odd_cycle, no_hom_certificate
from .rng import RngSpec
from .sampling import sample_gnp, sample_tournament
from .tournament import (
    Tournament,
    backedge_blowup_count,
    backedge_graph,
    bounded_degree_matching,
    chromatic_number_exact,
    dist_tour_bp_exact,
    find_h_copy,
    hero_tournament,
    is_transitive,
    long_backedges,
    read_tournament,
    two_coloring,
    write_tournament,
)

__version__ = "0.1.0"
