"""Pauli noise characterization of Clifford gate layers: cycle-benchmarking
simulation, sparse Pauli-Lindblad model fitting, learnability analysis and
probabilistic-error-cancellation bias evaluation."""

from .pauli import FidelityVector, PauliString, symplectic_inner, multiply, walsh_hadamard
from .layers import (
    CATALOG,
    Chain,
    CliffordLayer,
    SingleQubitClifford,
    alternating_conjugation,
    chain_decomposition,
    conjugate,
    orbit,
)
from .topology import Topology, four_layer_config, garnet20, square_lattice
from .spl import (
    GeneratorSet,
    RandomModelParams,
    SplModel,
    fidelity,
    fidelity_product,
    pec_weights,
    random_model,
)
from .learnability import (
    EquivalenceCertificate,
    FidelityFunction,
    LearnableSpan,
    LambdaSpace,
    equivalence_test,
    express_search,
    mlcb_targets,
    mu_ratios,
    orbit_learnables,
    pattern_transfer_unlearnable,
)
from .experiment import NoisySample, decay_fit
from .fitting import FitResult, distance_metrics, nnls, refine_unlearnable

__version__ = "0.1.0"
