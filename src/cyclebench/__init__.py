"""Pauli noise characterization of Clifford gate layers: cycle-benchmarking
simulation, sparse Pauli-Lindblad model fitting, learnability analysis and
probabilistic-error-cancellation bias evaluation.

The command line is `cyclebench.cli`; the library is used through its
modules (`cyclebench.pipeline`, `cyclebench.learnability`, ...)."""

__version__ = "0.1.0"
