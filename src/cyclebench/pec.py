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

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .layers import SQ_INVERSE_DIGITS, CliffordLayer, all_single_qubit_cliffords, cz_partners
from .pipeline import CharacterizationPlan, characterize_and_fit, generate_models, model_rng
from .spl import GeneratorSet, SplModel

# Circuit seed keys are mi * 100000 + ci * 100 + W, so they stay distinct
# only while ci < MAX_CIRCUITS and W < MAX_KEY_WEIGHT.
MAX_CIRCUITS = 1000
MAX_KEY_WEIGHT = 100


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
    gates: np.ndarray  # (C, J, n) uint8, not necessarily contiguous
    final: np.ndarray  # (C, n) uint8

    def strings(self) -> Iterator[tuple[int, np.ndarray]]:
        """(j, the (C, n) strings entering step j), for j = J-1 down to 0.

        Each step undoes the single-qubit part and then the self-inverse CZ
        part, z_q ^= x_partner(q) on every paired qubit, each as one flat
        `take`: the gates are stored once per batch as 4 g in (J, C, n)
        order, so 4 g + digit indexes the flattened
        `layers.SQ_INVERSE_DIGITS`, and the partner digits of
        `layers.cz_partners` are read at flat indices c n + partner(q).
        """
        c_count, n = self.final.shape
        partner, paired = cz_partners(self.layers, n)
        g4 = np.ascontiguousarray(self.gates.transpose(1, 0, 2)) << 2  # at most 92
        row_offsets = np.arange(0, c_count * n, n)[:, None]
        sq_inverse = SQ_INVERSE_DIGITS.ravel()
        p = self.final
        for j in range(self.base.shape[1] - 1, -1, -1):
            p = sq_inverse.take(g4[j] | p)
            b = self.base[:, j]
            p = p ^ ((p.take(partner[b] + row_offsets) << 1) & paired[b])
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

    The step draws are one bounded draw per circuit: (J, n + 1) integers
    below B = lcm(L, 24) for L base layers, kept in the smallest unsigned
    type that holds them and divided, for all circuits at once, by B / L
    (base layer) or B / 24 (gate).  This is the stream of one scalar draw per
    slot.  Below 2^32 numpy maps one 32-bit word x to floor(r x / 2^32) for
    the range r of the slot, and floor(floor(B x / 2^32) / (B / r)) =
    floor(r x / 2^32).  The two can differ only where a bounded-draw
    rejection falls on a slot (probability at most B / 2^32 per slot, about
    4e-9 for garnet20's four layers), and both are exactly uniform either
    way.  A single base layer consumes no random word per step, as a scalar
    draw of range one does not, so then only the gates are drawn.
    """
    labels = sorted(base_layers)
    n = base_layers[labels[0]].n
    if not 0 <= target_weight <= n:
        raise ValueError("target weight out of range")
    if j_layers < 1:
        raise ValueError("circuit needs at least one layer")
    n_layers, n_gates = len(labels), len(all_single_qubit_cliffords())
    bound = math.lcm(n_layers, n_gates)
    draws = np.zeros((len(rngs), j_layers, n + 1), dtype=np.min_scalar_type(bound - 1))
    final = np.zeros((len(rngs), n), dtype=np.uint8)
    for c, rng in enumerate(rngs):
        if n_layers == 1:
            draws[c, :, 1:] = rng.integers(0, n_gates, size=(j_layers, n))
        else:
            draws[c] = rng.integers(0, bound, size=(j_layers, n + 1))
        qubits = rng.permutation(n)[:target_weight]
        final[c, qubits] = _LETTER_DIGITS[rng.integers(3, size=target_weight)]
    base = (draws[:, :, 0] // (bound // n_layers)).astype(np.intp)
    gates = draws[:, :, 1:]
    gates //= bound // n_gates
    gates = gates.astype(np.uint8, copy=False)  # a view of the draws while B <= 256
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
