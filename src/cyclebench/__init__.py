"""Pauli noise characterization of Clifford gate layers: cycle-benchmarking
simulation, sparse Pauli-Lindblad model fitting, learnability analysis and
probabilistic-error-cancellation bias evaluation."""

from .pauli import FidelityVector, PauliString, symplectic_inner, multiply, walsh_hadamard
from .layers import (
    CATALOG,
    Chain,
    CliffordLayer,
    SingleQubitClifford,
    chain_decomposition,
    conjugate,
)
from .topology import Topology, four_layer_config, garnet20, square_lattice
from .spl import (
    GeneratorSet,
    RandomModelParams,
    SplModel,
    random_model,
)
from .learnability import (
    EquivalenceCertificate,
    FidelityFunction,
    LearnableSpan,
    LambdaSpace,
    express_search,
    mlcb_targets,
    orbit_learnables,
    pattern_transfer_unlearnable,
)
from .experiment import NoisySample, decay_fit
from .fitting import FitResult, distance_metrics, nnls, refine_unlearnable

__version__ = "0.1.0"
