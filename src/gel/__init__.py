"""gel — a graph energy lab.

Discrete gradient flows of parametric energies on graphs: energies and their
gradients, explicit-Euler dynamics for a family of message-passing models,
closed-form spectral solutions, asymptotic regime prediction (dominant low
vs high frequency), and a self-verification suite that replays every claim
on concrete desk-scale graphs.
"""

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    GelError,
    GelIOError,
    HypothesisError,
    NumericError,
    ParseError,
    RegimeError,
    ValidationError,
)
from .graphs import (
    Graph,
    GraphChecks,
    SpectralPair,
    complete_bipartite,
    cycle,
    erdos_renyi,
    from_edge_list,
    graph_checks,
    laplacian_spectrum,
    normalized_adjacency,
    normalized_laplacian,
    path,
    spectral_decomposition,
)
from .energy import (
    EnergyBreakdown,
    WeightSet,
    dirichlet_energy,
    energy_decomposition,
    energy_gradient,
    lp_energy,
    make_weights,
    parametric_energy,
    rayleigh_quotient,
)
from .dynamics import (
    ModelSpec,
    Trajectory,
    run_trajectory,
    spectral_filter_step,
    step_model,
    trajectory_states,
)
from .spectral import (
    ProfilePrediction,
    RegimeReport,
    asymptotic_profile,
    classify_regime,
    closed_form_features,
)
from .config import ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"
