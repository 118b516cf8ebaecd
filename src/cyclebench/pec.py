"""Probabilistic-error-cancellation bias on random Clifford circuits:
propagate a Pauli observable through composite layers and accumulate the
ratio of exact to reconstructed fidelities.

A batch of C circuits of J composite layers on n qubits is a set of arrays
(`CircuitBatch`), and all circuits propagate together: strings are (n, C)
uint8 digits x + 2z, qubit-major.  Only the string each circuit ends in is
drawn; one backward pass over the steps pulls it back through the circuit
and yields the string entering every step.  The log fidelity ratio of a
step is then a sum of lookups in per-site tables built once per pass, one
site per edge (each qubit's generators folded into one of its edges),
indexed by the string's digits there.  A model's weights share passes of
at most `MAX_CIRCUITS` circuits, each drawn by one `sample_circuit` call.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .layers import SQ_DIGITS, SQ_INVERSE_DIGITS, CliffordLayer, cz_partners
from .pipeline import CharacterizationPlan, sweep_item
from .spl import GeneratorSet, SplModel

# Circuit seed keys are mi * 100000 + ci * 100 + W, so they stay distinct
# only while ci < MAX_CIRCUITS and W < MAX_KEY_WEIGHT.
MAX_CIRCUITS = 1000
MAX_KEY_WEIGHT = 100
# A PEC pass draws into one (J, n + 1, C) array, a byte per circuit and
# step for the base layer and for each qubit's gate (the batch's base and
# gates are views of it), and propagation holds only a few (n, C) strings
# and (S, C) site codes at a time: MAX_CIRCUITS circuits of MAX_J_LAYERS
# steps on garnet20 hold 21.0 MB of draws, and the pass peaks at 23.1 MB
# (tracemalloc; the paper's circuits have 40 steps).
MAX_J_LAYERS = 1000


# Digit of the Pauli that letter index 0, 1, 2 (X, Y, Z) of the final
# string draw stands for.
_LETTER_DIGITS = np.array([1, 3, 2], dtype=np.uint8)

# Words a Fisher-Yates position of `sample_circuit`'s vectorized support
# draw looks ahead; a circuit needing more is drawn by the generator's calls
# (about once in 10^5 circuits on 20 qubits).
_LOOKAHEAD = 16
# Raw 64-bit words per chunk of `sample_circuit`'s word blocks (256 kB).
_CHUNK_WORDS = 1 << 15


@dataclass(frozen=True)
class CircuitBatch:
    """C random circuits of J composite layers on n qubits, step-major.

    Step j of circuit c is the CZ gates of base layer `layers[base[j, c]]`
    followed by the single-qubit Clifford of row `gates[j, q, c]` of
    `layers.SQ_DIGITS` on every qubit q (the base layers' own single-qubit
    gates are not part of the circuit).  `final[:, c]` is the string circuit
    c's observable ends as, one digit x + 2z per qubit.  `sample_circuit`
    returns base and gates as views of its (J, n + 1, C) draws, in their
    unsigned type, the order `strings` reads them in.
    """

    layers: tuple[CliffordLayer, ...]
    base: np.ndarray  # (J, C) unsigned int
    gates: np.ndarray  # (J, n, C) unsigned int, not necessarily contiguous
    final: np.ndarray  # (n, C) uint8

    def strings(self) -> Iterator[tuple[int, np.ndarray]]:
        """(j, the (n, C) strings entering step j), for j = J-1 down to 0:
        qubit-major, row q holding every circuit's digit on qubit q.

        Each step undoes the single-qubit part and then the self-inverse CZ
        part, z_q ^= x_partner(q) on every paired qubit.  The step's gate
        row shifted, 4 g | digit, indexes the flattened
        `layers.SQ_INVERSE_DIGITS` in one `take`.  For the CZ part, each
        step stacks the x bits, moved to z, in rows (q, layer) by
        `layers.cz_partners` (a zero row where q has no partner), and every
        circuit reads its base layer's column block: one `take` along the
        circuit axis, by a (C,) index formed for the step.
        """
        n, c_count = self.final.shape
        n_layers = len(self.layers)
        partner, paired = cz_partners(self.layers, n)
        stack_rows = np.where(paired, partner, n).T.ravel()
        block_starts = np.arange(n_layers) * c_count
        circuits = np.arange(c_count)
        x2 = np.zeros((n + 1, c_count), dtype=np.uint8)
        sq_inverse = SQ_INVERSE_DIGITS.ravel()
        p = self.final
        for j in range(len(self.base) - 1, -1, -1):
            p = sq_inverse.take(self.gates[j] * 4 | p)  # 4 g at most 92
            np.bitwise_and(np.add(p, p, out=x2[:n]), 2, out=x2[:n])  # x moved to z
            stack = x2.take(stack_rows, axis=0).reshape(n, n_layers * c_count)
            p ^= stack.take(block_starts.take(self.base[j]) + circuits, axis=1)
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
    sum over the S sites of `generators.site_tables` (the edges, each
    qubit's terms folded into one of its edges) of a value fixed by the
    string's two digits there.  One table per call holds these values for
    every site s, base layer l, site code and fit f,
    T[s, l, code, f] = -2 sum_{k in s} ov16[code, k] (lambda_true - lambda_f)[l, k],
    as one row of F values per (s, l, code), at row 16 L s + 16 l + code.
    Each step reads the (n, C) qubit-major strings of `batch.strings()`
    and its own (C,) row of `batch.base`: a site's two digits are two row
    takes, its code p[lo] | 4 p[hi] stays uint8 until the layer and site
    offsets are added, and one `take` of the (S, C) rows of all fits at
    once is added into an (S, C, F) buffer that is summed over the sites
    once.
    """
    sites, site_of, ov16 = generators.site_tables
    labels = [layer.label for layer in batch.layers]
    n_sites, n_layers = len(sites), len(labels)
    # Generators grouped by site, so that each site's sum is one reduceat segment.
    order = np.argsort(site_of, kind="stable")
    starts = np.searchsorted(site_of[order], np.arange(n_sites))
    delta = np.stack([[true_models[lab].lambdas - fit[lab] for lab in labels] for fit in fits])
    # A non-finite rate turns entries of its site into NaN (0 * inf), so a
    # circuit meets it exactly when one of its steps is on that layer.
    with np.errstate(invalid="ignore"):
        terms = ov16[:, order] * delta[:, :, None, order]
        table = -2.0 * np.add.reduceat(terms, starts, axis=-1)  # (F, L, 16, S)
    for layer in np.flatnonzero(~np.isfinite(table).all(axis=(0, 2, 3))).tolist():
        if (batch.base == layer).any():
            raise RuntimeError(f"fitted fidelity vanished on layer {labels[layer]}")
    rows = np.ascontiguousarray(table.transpose(3, 1, 2, 0)).reshape(-1, len(fits))
    # Row indices in the narrowest unsigned type that holds them: every
    # operation on them then stays in one integer type.
    row_type = np.min_scalar_type(len(rows) - 1)
    site_rows = np.arange(0, len(rows), 16 * n_layers, dtype=row_type)[:, None]
    lo, hi = sites.T
    log_o = np.zeros((n_sites, batch.base.shape[1], len(fits)))
    for j, p in batch.strings():
        code = p.take(lo, axis=0)
        code |= (p * 4).take(hi, axis=0)
        idx = code.astype(row_type)
        idx |= np.multiply(batch.base[j], 16, dtype=row_type)
        idx += site_rows
        log_o += rows.take(idx, axis=0)
    with np.errstate(over="ignore"):  # `model_rows` rejects an infinite O
        return np.exp(log_o.sum(axis=0).T)


def _lemire(words: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw below r (1 < r < 2^32) from each uint32 word w
    (`buffered_bounded_lemire_uint32`, after Lemire, ACM TOMS 45, 2019):
    the value floor(w r / 2^32), as uint64, and whether numpy rejects w,
    which it does when (w r) mod 2^32 < (2^32 - r) mod r, and then draws
    another word."""
    rejected = words * np.uint32(r) < (2**32 - r) % r  # uint32 wraps mod 2^32
    values = words.astype(np.uint64)
    values *= np.uint64(r)
    values >>= np.uint64(32)
    return values, rejected


def _support_draws(tail: np.ndarray, n: int, weight: int):
    """numpy's `permutation(n)[:weight]` followed by `integers(3, size=weight)`
    for every row of `tail`, the (m, width) uint32 words each row's draws
    read in order: (support (m, weight), letters (m, weight), and whether a
    row must be redrawn, since its draws reject more than a look-ahead
    allows, a letter word is rejected or the words run out).

    `permutation` is Fisher-Yates from the top: for i = n-1 down to 1 it
    swaps entry i with entry j, drawn by numpy's `random_interval(i)`, the
    first word whose low bits under the smallest mask 2^k - 1 >= i are at
    most i.  Every row's position i looks at the `_LOOKAHEAD` words from its
    own pointer at once.
    """
    m, width = tail.shape
    flat = tail.ravel()
    rows = np.arange(m)
    end = rows * width + width
    ptr = end - width
    perm = np.tile(np.arange(n), (m, 1))
    perm_flat = perm.ravel()
    perm_rows = rows * n
    ahead = np.arange(_LOOKAHEAD)
    redraw = np.zeros(m, dtype=bool)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        window = flat.take(ptr[:, None] + ahead, mode="clip")  # past `end`: checked below
        window &= mask
        first = (window <= i).argmax(axis=1)
        j = window[rows, first]
        redraw |= j > i  # no word of the window accepted
        ptr += first + 1
        j = np.minimum(j, i) + perm_rows
        swapped = perm_flat.take(j)
        perm_flat[j] = perm[:, i]
        perm[:, i] = swapped
    letters, rejected = _lemire(flat.take(ptr[:, None] + np.arange(weight), mode="clip"), 3)
    redraw |= rejected.any(axis=1) | (ptr + weight > end)
    return perm[:, :weight], letters, redraw


# numpy's SeedSequence hash constants and the PCG64 multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64).  numpy's
# stream-compatibility policy (NEP 19) fixes the SeedSequence -> PCG64
# mapping they define.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (initial constant, multiplier), pool mixing
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same for generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int):
    """numpy's running hash constant: (h_t, h_t+1 = h_t mult) per hash."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, constants):
    """SeedSequence's hashmix, on a Python int or a uint32 array."""
    h, nxt = next(constants)
    value = ((value ^ h) * nxt) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, at least one."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _start_states(master_seed: int, keys: Sequence[int]) -> list[dict]:
    """The `bit_generator.state` that `model_rng(master_seed, k)` starts in,
    for every k of `keys`, without building a SeedSequence or a generator.

    One pass runs SeedSequence's pool hash: the entropy words (zero-padded
    to the four-word pool, as a spawn key requires) are shared by all keys
    and hashed once in Python ints; the spawn-key words are hashed for all
    keys at once in uint32 arrays.  The hash constant advances the same way
    for every key, so a key with fewer words just keeps its pool past its
    last word.  The pool's eight output words then seed PCG64 by its 128-bit
    step, in Python ints.  A test pins the states to `model_rng`'s.
    """
    keys = [int(k) for k in keys]
    if master_seed < 0 or any(k < 0 for k in keys):
        raise ValueError("seed and keys must be nonnegative")
    entropy = _uint32_words(master_seed)
    entropy += [0] * (4 - len(entropy))
    constants = _hash_constants(*_HASH_A)
    pool = [_hashmix(word, constants) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    pool = [np.full(len(keys), word, dtype=np.uint32) for word in pool]
    for shift in range(0, max(keys, default=0).bit_length() or 1, 32):
        word = np.array([(k >> shift) & _MASK32 for k in keys], dtype=np.uint32)
        has_word = np.array([shift == 0 or k >> shift > 0 for k in keys])
        for dst in range(4):
            mixed = _mix(pool[dst], _hashmix(word, constants))
            pool[dst] = np.where(has_word, mixed, pool[dst])
    constants = _hash_constants(*_HASH_B)
    out = np.array([_hashmix(pool[i % 4], constants) for i in range(8)], dtype=np.uint64)
    # PCG64 reads the words as little-endian uint64 (seed_hi, seed_lo,
    # seq_hi, seq_lo) and steps s -> s M + inc from 0, adding the seed
    # between its two steps, with inc = 2 seq + 1 (mod 2^128).
    states = []
    for s_hi, s_lo, i_hi, i_lo in (out[0::2] | (out[1::2] << 32)).T.tolist():
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def sample_circuit(
    base_layers: dict[str, CliffordLayer],
    j_layers: int,
    weights: int | Sequence[int],
    master_seed: int,
    keys: Sequence[int],
) -> CircuitBatch:
    """One random circuit per key in `keys`, circuit c ending in a uniform
    Pauli string of weight W = `weights[c]` (an int is every circuit's
    weight): circuit c is the circuit that `model_rng(master_seed, keys[c])`
    draws.  In order, its draws are one bounded draw for all steps, then the
    final string's support and letters:

        draws = rng.integers(0, B, size=(J, n + 1))
        qubits = rng.permutation(n)[:W]
        letters = rng.integers(3, size=W)

    B = lcm(L, 24) for L base layers, and the draws are divided by B / L
    (base layer) or B / 24 (gate).  This is the stream of one scalar draw per
    slot.  Below 2^32 numpy maps one 32-bit word x to floor(r x / 2^32) for
    the range r of the slot, and floor(floor(B x / 2^32) / (B / r)) =
    floor(r x / 2^32).  The two can differ only where a bounded-draw
    rejection falls on a slot (probability at most B / 2^32 per slot, about
    4e-9 for garnet20's four layers), and both are exactly uniform either
    way.  A single base layer consumes no random word per step, as a scalar
    draw of range one does not, so then only the gates are drawn.  Pulling
    the final string back gives the initial one; conjugation is a bijection,
    so this matches rejection sampling on the initial string exactly and
    never rejects.

    Those three calls read 32-bit words, which `PCG64` serves as the low and
    then the high half of each 64-bit output.  So every circuit's start state
    comes from one `_start_states` pass and is set on a `PCG64` of the
    sampler's own, which takes one `random_raw` block of the words the draws
    read if nothing is rejected, plus a margin; a start state holds no
    buffered half word, so the block begins with the circuit's first word.
    numpy's algorithms then run on the blocks' little-endian uint32 view for
    all circuits at once: Lemire's bounded draw for the steps and letters
    (`_lemire`) and Fisher-Yates with masked rejection for the support
    (`_support_draws`, run for the largest weight: circuit c keeps its
    first W letters, and a W = 0 circuit needs no support).  Only a circuit
    whose draws these cannot finish (a rejected bounded draw, a long
    rejection run, a used-up block) makes the three calls itself.  The
    blocks are drawn in chunks of about `_CHUNK_WORDS` words, to bound their
    temporaries, and each chunk's steps are written straight into a
    (J, n + 1, C) array.  Divided in place, its row 0 is the batch's (J, C)
    base and the rest its (J, n, C) gates, in the draws' unsigned type
    (uint8 while B <= 256): the step-major order `CircuitBatch.strings`
    reads them in.
    """
    labels = sorted(base_layers)
    n = base_layers[labels[0]].n
    weights = np.asarray(weights)
    if np.any((weights < 0) | (weights > n)):
        raise ValueError("target weight out of range")
    if j_layers < 1:
        raise ValueError("circuit needs at least one layer")
    states = _start_states(master_seed, keys)
    m = len(states)
    weights = np.broadcast_to(weights, (m,))
    w_max = int(weights.max(initial=0))
    n_layers, n_gates = len(labels), len(SQ_DIGITS)
    bound = math.lcm(n_layers, n_gates)
    draws = np.zeros((j_layers, n + 1, m), dtype=np.min_scalar_type(bound - 1))
    final = np.zeros((n, m), dtype=np.uint8)
    rng = np.random.Generator(np.random.PCG64())
    bit_generator = rng.bit_generator
    steps = draws[:, 1:] if n_layers == 1 else draws
    slots = math.prod(steps.shape[:2])
    width = slots + 2 * (n - 1) + _LOOKAHEAD + w_max  # words per circuit
    k = (width + 1) // 2
    chunk = max(1, _CHUNK_WORDS // k)
    block = np.empty((min(chunk, m), k), dtype="<u8")
    tail = np.empty((m, 2 * k - slots), dtype="<u4")
    redraw = np.zeros(m, dtype=bool)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        for c in range(lo, hi):
            bit_generator.state = states[c]
            block[c - lo] = bit_generator.random_raw(k)
        words = block[: hi - lo].view("<u4")
        values, rejected = _lemire(words[:, :slots], n_gates if n_layers == 1 else bound)
        steps[:, :, lo:hi] = values.reshape(hi - lo, *steps.shape[:2]).transpose(1, 2, 0)
        redraw[lo:hi] = rejected.any(axis=1)
        tail[lo:hi] = words[:, slots:]
    if w_max:
        qubits, letters, unfinished = _support_draws(tail, n, w_max)
        kept = np.arange(w_max) < weights[:, None]
        final[qubits, np.arange(m)[:, None]] = _LETTER_DIGITS[letters] * kept
        redraw |= unfinished & (weights > 0)
    for c in np.flatnonzero(redraw).tolist():
        bit_generator.state = states[c]
        if n_layers == 1:
            draws[:, 1:, c] = rng.integers(0, n_gates, size=(j_layers, n))
        else:
            draws[:, :, c] = rng.integers(0, bound, size=(j_layers, n + 1))
        qubits = rng.permutation(n)[: weights[c]]
        final[:, c] = 0
        final[qubits, c] = _LETTER_DIGITS[rng.integers(3, size=weights[c])]
    base, gates = draws[:, 0], draws[:, 1:]
    base //= bound // n_layers
    if bound != n_gates:
        gates //= bound // n_gates
    return CircuitBatch(tuple(base_layers[lab] for lab in labels), base, gates, final)


def check_limits(n: int, n_circuits: int, j_layers: int, weights: Sequence[int]) -> None:
    """Raise ValueError unless a sweep on n qubits keeps its circuit keys distinct
    and its batches bounded, with distinct weights of at most n."""
    if not 1 <= n_circuits <= MAX_CIRCUITS:
        raise ValueError(f"circuits must be in [1, {MAX_CIRCUITS}], got {n_circuits}")
    if not 1 <= j_layers <= MAX_J_LAYERS:
        raise ValueError(f"j_layers must be in [1, {MAX_J_LAYERS}], got {j_layers}")
    w_max = min(n, MAX_KEY_WEIGHT - 1)
    weights = list(weights)
    if not weights or any(
        isinstance(w, bool) or not isinstance(w, int) or not 0 <= w <= w_max for w in weights
    ):
        raise ValueError(
            f"weights must be a non-empty list of integers in [0, {w_max}], got {weights}"
        )
    if len(set(weights)) != len(weights):
        raise ValueError(f"weights must be distinct, got {weights}")


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
    """Rows of (model seed, circuit seed, W, O_c, O_m) for the full sweep,
    model by model (`model_rows`)."""
    return [
        row
        for mi in range(n_models)
        for row in model_rows(
            plan, mi, n_circuits, j_layers, weights, sigma, sigma_prime, baseline, master_seed
        )
    ]


def model_rows(
    plan: CharacterizationPlan,
    mi: int,
    n_circuits: int,
    j_layers: int,
    weights: tuple[int, ...],
    sigma: float,
    sigma_prime: float,
    baseline: str,
    master_seed: int,
) -> list[dict]:
    """`pec_sweep`'s rows of model `mi`, which depend on no other model.

    The model and its fits are `sweep_item(plan, master_seed, mi, ...)`'s.
    Circuit ci at weight w is what
    `model_rng(master_seed + 7919, mi * 100000 + ci * 100 + w)` draws
    (`sample_circuit`); `check_limits` keeps these keys distinct.  As many
    weights as fit in `MAX_CIRCUITS` circuits share a pass: one
    `sample_circuit` call draws all their circuits, each key with its own
    weight, and one `pec_observable` call propagates them.  A non-finite
    O_c or O_m raises RuntimeError naming the model and the weight.
    """
    check_limits(plan.topology.n, n_circuits, j_layers, weights)
    base_layers = {lab: lp.layer for lab, lp in plan.layers.items()}
    models, result = sweep_item(plan, master_seed, mi, sigma, sigma_prime, baseline)
    fits = (result.fitted["conventional"], result.fitted["mlcb"])
    per_pass = MAX_CIRCUITS // n_circuits
    rows = []
    for start in range(0, len(weights), per_pass):
        pairs = list(itertools.product(weights[start : start + per_pass], range(n_circuits)))
        batch = sample_circuit(
            base_layers, j_layers, [w for w, _ in pairs], master_seed + 7919,
            [mi * 100000 + ci * 100 + w for w, ci in pairs],
        )
        o_c, o_m = pec_observable(models, fits, batch, plan.generators)
        bad = ~(np.isfinite(o_c) & np.isfinite(o_m))
        if bad.any():
            w = pairs[np.flatnonzero(bad)[0]][0]
            raise RuntimeError(f"PEC observable of model {mi} at weight {w} is not finite")
        rows.extend(
            {"model_seed": mi, "circuit_seed": ci, "W": w, "O_c": float(c), "O_m": float(m)}
            for (w, ci), c, m in zip(pairs, o_c, o_m)
        )
    return rows


def summarize_pec(rows: list[dict]) -> dict:
    out: dict = {"by_weight": {}}
    weights = sorted({r["W"] for r in rows})
    for w in weights:
        oc = np.array([r["O_c"] for r in rows if r["W"] == w])
        om = np.array([r["O_m"] for r in rows if r["W"] == w])
        # A statistic beyond the float range reads inf, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            out["by_weight"][w] = {
                "mean_O_c": float(oc.mean()),
                "mean_O_m": float(om.mean()),
                "std_O_c": float(oc.std()),
                "std_O_m": float(om.std()),
                "count": int(len(oc)),
            }
    return out
