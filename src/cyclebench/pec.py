"""Probabilistic-error-cancellation bias on random Clifford circuits:
propagate a Pauli observable through composite layers and accumulate the
ratio of exact to reconstructed fidelities.

A batch of C circuits of J composite layers on n qubits is a set of arrays
(`CircuitBatch`), and all circuits propagate together: strings are (C, n)
uint8 digits x + 2z per qubit, without signs, since every fidelity lookup
is unsigned.  Only the string each circuit ends in is drawn; one backward
pass over the steps pulls it back through the circuit and yields the string
entering every step.  The log fidelity ratio of a step is then a sum of
lookups in per-site tables built once per call, one site per generator
support (a qubit or an edge), indexed by the string's digits there.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .layers import CliffordLayer, all_single_qubit_cliffords
from .pipeline import CharacterizationPlan, characterize_and_fit, generate_models, model_rng
from .spl import GeneratorSet, SplModel

# Circuit seed keys are mi * 100000 + ci * 100 + W, so they stay distinct
# only while ci < MAX_CIRCUITS and W < MAX_KEY_WEIGHT.
MAX_CIRCUITS = 1000
MAX_KEY_WEIGHT = 100


def _sq_inverse_table() -> np.ndarray:
    """(24, 4) digits: row g maps each digit to its conjugation by the
    inverse of `all_single_qubit_cliffords()[g]`, sign dropped."""
    group = all_single_qubit_cliffords()
    table = np.zeros((len(group), 4), dtype=np.uint8)
    for g, gate in enumerate(group):
        for (x, z), (_, nx, nz) in gate.table.items():
            table[g, nx + 2 * nz] = x + 2 * z
    return table


_SQ_INVERSE = _sq_inverse_table()

# Digit of the Pauli that letter index 0, 1, 2 (X, Y, Z) of the final
# string draw stands for.
_LETTER_DIGITS = np.array([1, 3, 2], dtype=np.uint8)


@dataclass(frozen=True)
class CircuitBatch:
    """C random circuits of J composite layers on n qubits.

    Step j of circuit c is the CZ gates of base layer `layers[base[c, j]]`
    followed by the single-qubit Clifford
    `all_single_qubit_cliffords()[gates[c, j, q]]` on every qubit q (the base
    layers' own single-qubit gates are not part of the circuit).  `final[c]`
    is the string circuit c's observable ends as, one digit x + 2z per qubit.
    """

    layers: tuple[CliffordLayer, ...]
    base: np.ndarray  # (C, J) int
    gates: np.ndarray  # (C, J, n) uint8
    final: np.ndarray  # (C, n) uint8

    def strings(self) -> Iterator[tuple[int, np.ndarray]]:
        """(j, the (C, n) strings entering step j), for j = J-1 down to 0.

        Each step undoes the single-qubit part by table lookup and then the
        self-inverse CZ part, z_q ^= x_partner(q) on every paired qubit.
        """
        n = self.final.shape[1]
        partner = np.tile(np.arange(n), (len(self.layers), 1))
        paired = np.zeros((len(self.layers), n), dtype=np.uint8)
        for i, layer in enumerate(self.layers):
            for a, b in layer.cz_pairs:
                partner[i, a], partner[i, b] = b, a
                paired[i, [a, b]] = 2  # selects the partner's x bit, shifted onto z
        p = self.final
        for j in range(self.base.shape[1] - 1, -1, -1):
            p = _SQ_INVERSE[self.gates[:, j], p]
            b = self.base[:, j]
            p = p ^ ((np.take_along_axis(p, partner[b], axis=1) << 1) & paired[b])
            yield j, p


def pec_observable(
    true_models: dict[str, SplModel],
    fits: Sequence[dict[str, np.ndarray]],
    batch: CircuitBatch,
    generators: GeneratorSet,
) -> np.ndarray:
    """(len(fits), C): for every fit and circuit, the product over the
    circuit of f_exact / f_fitted at the propagated Pauli string (noise acts
    before each layer, so step j uses the string entering it).  SPAM plays
    no role.

    Every generator acts on at most two qubits, so a step's log ratio is a
    sum over the S sites of `generators.site_tables` of a value fixed by the
    string's two digits there.  One table per call holds these values for
    every fit f, base layer l, site s and site code,
    T[f, l, s, code] = -2 sum_{k in s} ov16[code, k] (lambda_true - lambda_f)[l, k],
    and each step is one lookup of the (C, S) site codes in it.
    """
    sites, site_of, ov16 = generators.site_tables
    labels = [layer.label for layer in batch.layers]
    n_sites = len(sites)
    # Generators grouped by site, so that each site's sum is one reduceat segment.
    order = np.argsort(site_of, kind="stable")
    starts = np.searchsorted(site_of[order], np.arange(n_sites))
    delta = np.stack([[true_models[lab].lambdas - fit[lab] for lab in labels] for fit in fits])
    # A non-finite rate turns entries of its site into NaN (0 * inf), so a
    # circuit meets it exactly when one of its steps is on that layer.
    with np.errstate(invalid="ignore"):
        terms = ov16[:, order] * delta[:, :, None, order]
        table = -2.0 * np.add.reduceat(terms, starts, axis=-1)  # (F, L, 16, S)
    used = np.bincount(batch.base.ravel(), minlength=len(labels)) > 0
    bad = np.flatnonzero(used & ~np.isfinite(table).all(axis=(0, 2, 3)))
    if bad.size:
        raise ZeroDivisionError(f"fitted fidelity vanished on layer {labels[bad[0]]}")
    flat = table.transpose(0, 1, 3, 2).reshape(len(fits), -1)
    # Flat index of (layer l, site s, code 0) in each fit's table.
    offsets = np.arange(len(labels))[:, None] * (16 * n_sites) + np.arange(n_sites) * 16
    lo, hi = sites[:, 0], sites[:, 1]
    log_o = np.zeros((len(fits), batch.base.shape[0]))
    for j, p in batch.strings():
        idx = offsets[batch.base[:, j]] + (p[:, lo] | (p[:, hi] << 2))
        log_o += np.take(flat, idx, axis=1).sum(axis=2)
    return np.exp(log_o)


def sample_circuit(
    base_layers: dict[str, CliffordLayer],
    j_layers: int,
    target_weight: int,
    rngs: Sequence[np.random.Generator],
) -> CircuitBatch:
    """One random circuit per generator in `rngs`, each ending in a uniform
    weight-`target_weight` Pauli string.

    Each generator draws, in order, the base-layer index and the 24
    single-qubit Clifford indices of every step, then the final string's
    support and letters.  Pulling the final string back gives the initial
    one; conjugation is a bijection, so this matches rejection sampling on
    the initial string exactly and never rejects.
    """
    labels = sorted(base_layers)
    n = base_layers[labels[0]].n
    if not 0 <= target_weight <= n:
        raise ValueError("target weight out of range")
    if j_layers < 1:
        raise ValueError("circuit needs at least one layer")
    highs = np.tile([len(labels)] + [len(all_single_qubit_cliffords())] * n, j_layers)
    base = np.empty((len(rngs), j_layers), dtype=np.intp)
    gates = np.empty((len(rngs), j_layers, n), dtype=np.uint8)
    final = np.zeros((len(rngs), n), dtype=np.uint8)
    for c, rng in enumerate(rngs):
        draws = rng.integers(0, highs).reshape(j_layers, n + 1)
        base[c] = draws[:, 0]
        gates[c] = draws[:, 1:]
        qubits = rng.permutation(n)[:target_weight]
        final[c, qubits] = _LETTER_DIGITS[rng.integers(3, size=target_weight)]
    return CircuitBatch(tuple(base_layers[lab] for lab in labels), base, gates, final)


def pec_sweep(
    plan: CharacterizationPlan,
    n_models: int,
    n_circuits: int,
    j_layers: int,
    weights: tuple[int, ...],
    sigma: float,
    sigma_prime: float,
    baseline: str,
    master_seed: int,
) -> list[dict]:
    """Rows of (model seed, circuit seed, W, O_c, O_m) for the full sweep."""
    if n_circuits > MAX_CIRCUITS or any(w >= MAX_KEY_WEIGHT for w in weights):
        raise ValueError(
            f"circuit seed keys collide beyond {MAX_CIRCUITS} circuits "
            f"or weight {MAX_KEY_WEIGHT - 1}"
        )
    base_layers = {layer.label: layer for layer in plan.layers}
    rows = []
    for mi in range(n_models):
        rng = model_rng(master_seed, mi)
        models = generate_models(plan, rng)
        result = characterize_and_fit(
            plan, models, sigma, sigma_prime, baseline, rng
        )
        fits = (result.fitted["conventional"], result.fitted["mlcb"])
        for w in weights:
            rngs = [
                model_rng(master_seed + 7919, mi * 100000 + ci * 100 + w)
                for ci in range(n_circuits)
            ]
            batch = sample_circuit(base_layers, j_layers, w, rngs)
            o_c, o_m = pec_observable(models, fits, batch, plan.generators)
            rows.extend(
                {"model_seed": mi, "circuit_seed": ci, "W": w, "O_c": float(c), "O_m": float(m)}
                for ci, (c, m) in enumerate(zip(o_c, o_m))
            )
    return rows


def summarize_pec(rows: list[dict]) -> dict:
    out: dict = {"by_weight": {}}
    weights = sorted({r["W"] for r in rows})
    for w in weights:
        oc = np.array([r["O_c"] for r in rows if r["W"] == w])
        om = np.array([r["O_m"] for r in rows if r["W"] == w])
        out["by_weight"][w] = {
            "mean_O_c": float(oc.mean()),
            "mean_O_m": float(om.mean()),
            "std_O_c": float(oc.std()),
            "std_O_m": float(om.std()),
            "count": int(len(oc)),
        }
    return out
