import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench import pec
from cyclebench.layers import SQ_DIGITS, CliffordLayer, conjugate
from cyclebench.pauli import PauliString
from cyclebench.pec import (
    CircuitBatch,
    check_limits,
    pec_observable,
    pec_sweep,
    sample_circuit,
    summarize_pec,
)
from cyclebench.pipeline import build_plan, characterize_and_fit, generate_models, model_rng
from cyclebench.spl import GeneratorSet, SplModel, random_model
from cyclebench.topology import Topology, four_layer_config, square_lattice

GROUP = [tuple(row) for row in SQ_DIGITS.tolist()]
IDENTITY = GROUP.index((0, 1, 2, 3))


@pytest.fixture(scope="module")
def small_plan():
    topo = square_lattice(3, 2)
    return build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)


def toy_models(seed=0):
    topo = Topology(2, ((0, 1),))
    b = CliffordLayer(2, ((0, 1),), (), "B")
    rng = np.random.default_rng(seed)
    return topo, b, {"B": random_model(GeneratorSet(topo), b, rng=rng)}


def digits(p: PauliString) -> np.ndarray:
    return np.array(
        [((p.x_bits >> q) & 1) + 2 * ((p.z_bits >> q) & 1) for q in range(p.n)],
        dtype=np.uint8,
    )


def pauli(row) -> PauliString:
    x = sum(int(d & 1) << q for q, d in enumerate(row))
    z = sum(int(d >> 1) << q for q, d in enumerate(row))
    return PauliString(len(row), x, z)


def entering(batch: CircuitBatch) -> list[np.ndarray]:
    """The (C, n) strings entering steps 0, ..., J-1 (`strings` yields them
    qubit-major, (n, C))."""
    by_step = dict(batch.strings())
    return [by_step[j].T for j in range(len(by_step))]


def step_layer(batch: CircuitBatch, c: int, j: int) -> CliffordLayer:
    base = batch.layers[batch.base[j, c]]
    n = batch.final.shape[0]
    return CliffordLayer(n, base.cz_pairs, tuple((q, GROUP[batch.gates[j, q, c]]) for q in range(n)))


def bare_circuits(layer: CliffordLayer, finals: list[PauliString], steps: int) -> CircuitBatch:
    """`steps` repetitions of `layer` with identity single-qubit gates, one
    circuit per final string."""
    c, n = len(finals), layer.n
    return CircuitBatch(
        (layer,),
        np.zeros((steps, c), dtype=np.uint8),
        np.full((steps, n, c), IDENTITY, dtype=np.uint8),
        np.array([digits(p) for p in finals]).T,
    )


def start_states(master_seed, keys):
    """The start state of `model_rng(master_seed, key)` for every key: circuit
    c of `sample_circuit(..., master_seed, keys)` is the one it draws."""
    return [model_rng(master_seed, k).bit_generator.state for k in keys]


def per_circuit_sample(base_layers, j_layers, weights, rngs):
    """Reference: the sampler with one generator per circuit, which draws,
    in order, one bounded draw for all steps, the support and the letters
    of its final string, of weight `weights[c]`."""
    labels = sorted(base_layers)
    n = base_layers[labels[0]].n
    n_layers, n_gates = len(labels), len(GROUP)
    bound = math.lcm(n_layers, n_gates)
    draws = np.zeros((j_layers, n + 1, len(rngs)), dtype=np.min_scalar_type(bound - 1))
    final = np.zeros((n, len(rngs)), dtype=np.uint8)
    for c, (rng, w) in enumerate(zip(rngs, weights, strict=True)):
        if n_layers == 1:
            draws[:, 1:, c] = rng.integers(0, n_gates, size=(j_layers, n))
        else:
            draws[:, :, c] = rng.integers(0, bound, size=(j_layers, n + 1))
        qubits = rng.permutation(n)[:w]
        final[qubits, c] = np.array([1, 3, 2], dtype=np.uint8)[rng.integers(3, size=w)]
    base = draws[:, 0] // (bound // n_layers)
    gates = draws[:, 1:] // (bound // n_gates)
    return CircuitBatch(tuple(base_layers[lab] for lab in labels), base, gates, final)


def scalar_sample(base_layers, j_layers, target_weight, rng):
    """Reference: the per-draw sampler, one scalar draw per base layer,
    single-qubit gate and final letter."""
    labels = sorted(base_layers)
    n = base_layers[labels[0]].n
    base, gates = [], []
    for _ in range(j_layers):
        base.append(rng.integers(len(labels)))
        gates.append([rng.integers(len(GROUP)) for _ in range(n)])
    final = np.zeros(n, dtype=np.uint8)
    for q in rng.permutation(n)[:target_weight]:
        letter = rng.integers(3)
        final[q] = (letter != 2) + 2 * (letter != 0)
    return np.array(base), np.array(gates), final


def scalar_lemire(words, r):
    """A copy of numpy's `buffered_bounded_lemire_uint32` for the range
    [0, r): (value, words consumed) from the iterator `words`."""
    consumed = 1
    m = next(words) * r
    leftover = m & 0xFFFFFFFF
    if leftover < r:
        threshold = (0xFFFFFFFF - (r - 1)) % r
        while leftover < threshold:
            consumed += 1
            m = next(words) * r
            leftover = m & 0xFFFFFFFF
    return m >> 32, consumed


def scalar_support(words, n, weight):
    """A copy of numpy's `permutation(n)` (Fisher-Yates from the top, each
    j by `random_interval`) and `integers(3, size=weight)` on the uint32
    words of the iterator `words`: (support, letters, words read, most
    words read for one position, whether a letter word was rejected)."""
    perm, read, longest = list(range(n)), 0, 0
    for i in range(n - 1, 0, -1):
        mask, tries = (1 << i.bit_length()) - 1, 0
        while True:
            tries += 1
            j = next(words) & mask
            if j <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
        read, longest = read + tries, max(longest, tries)
    letters, rejected = [], False
    for _ in range(weight):
        value, consumed = scalar_lemire(words, 3)
        letters.append(value)
        read, rejected = read + consumed, rejected or consumed > 1
    return perm[:weight], letters, read, longest, rejected


def assert_scalar_draws(layers, j_layers, w, batch, states):
    """Circuit c of `batch` is what `scalar_sample` draws from `states[c]`."""
    n = layers[next(iter(layers))].n
    for c, state in enumerate(states):
        ref = np.random.default_rng()
        ref.bit_generator.state = state
        base, gates, final = scalar_sample(layers, j_layers, w, ref)
        assert np.array_equal(batch.base[:, c], base)
        assert np.array_equal(batch.gates[:, :, c], gates.reshape(j_layers, n))
        assert np.array_equal(batch.final[:, c], final)


class CountingGenerator(np.random.Generator):
    """A generator that counts the `permutation` calls of all its instances:
    one per circuit drawn by the generator's own calls."""

    permutations = 0

    def permutation(self, *args, **kwargs):
        CountingGenerator.permutations += 1
        return super().permutation(*args, **kwargs)


def cz_layers(n_layers, n=3):
    return {
        f"L{i:02d}": CliffordLayer(n, ((0, 1),) if i % 2 else (), (), f"L{i:02d}")
        for i in range(n_layers)
    }


def reference_log_observable(true_models, fits, batch, gens) -> np.ndarray:
    """Reference: (len(fits), C) sums over steps of
    -2 overlaps(beta_j) . (lambda_true - lambda_fit), one `GeneratorSet.overlaps`
    call per circuit and step."""
    labels = [layer.label for layer in batch.layers]
    log_o = np.zeros((len(fits), batch.base.shape[1]))
    for j, p in batch.strings():
        for c, row in enumerate(p.T):
            lab = labels[batch.base[j, c]]
            ov = gens.overlaps(pauli(row))
            for f, fit in enumerate(fits):
                log_o[f, c] += -2.0 * float(ov @ (true_models[lab].lambdas - fit[lab]))
    return log_o


def record_passes(monkeypatch) -> list[int]:
    """Patch `pec.pec_observable` to record the circuit count of every pass."""
    passes = []

    def recorded(models, fits, batch, generators):
        passes.append(batch.final.shape[1])
        return pec_observable(models, fits, batch, generators)

    monkeypatch.setattr(pec, "pec_observable", recorded)
    return passes


def perturbed_fits(models, seed, count=2):
    rng = np.random.default_rng(seed)
    return [
        {lab: np.clip(m.lambdas + rng.normal(0, 1e-3, len(m.lambdas)), 0, None) for lab, m in models.items()}
        for _ in range(count)
    ]


def isolated_qubit_setup():
    """5 qubits, qubit 4 on no edge: its site holds single-qubit generators only."""
    topo = Topology(5, ((0, 1), (1, 2), (2, 3)))
    layers = {
        "A": CliffordLayer(5, ((0, 1), (2, 3)), (), "A"),
        "B": CliffordLayer(5, ((1, 2),), (), "B"),
    }
    gens = GeneratorSet(topo)
    rng = np.random.default_rng(1)
    return gens, layers, {lab: random_model(gens, layer, rng=rng) for lab, layer in layers.items()}


def shuffled(gens, layers, models, seed):
    """The same generators built with `strings=` in a shuffled order, and the
    models' rates permuted to match."""
    perm = np.random.default_rng(seed).permutation(len(gens))
    out = GeneratorSet(gens.topology, strings=tuple(gens.strings[k] for k in perm))
    return out, layers, {lab: SplModel(lab, out, m.lambdas[perm]) for lab, m in models.items()}


class TestPecObservable:
    def test_perfect_characterization_gives_one(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        batch = bare_circuits(b, [PauliString.from_label(l) for l in ("XI", "ZY", "YY")], 3)
        perfect = {"B": models["B"].lambdas}
        o = pec_observable(models, (perfect, perfect), batch, gens)
        assert o.shape == (2, 3)
        assert o == pytest.approx(np.ones((2, 3)), rel=1e-12)

    def test_single_step_ratio(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        fits = [{"B": models["B"].lambdas * scale} for scale in (1.3, 0.7)]
        beta = PauliString.from_label("IX")
        batch = bare_circuits(b, [conjugate(b, beta)], 1)
        assert pauli(entering(batch)[0][0]) == beta
        f_true = models["B"].fidelity(beta)
        o = pec_observable(models, fits, batch, gens)
        for (o_fit,), fitted in zip(o, fits):
            f_fit = float(np.exp(-2 * gens.overlaps(beta) @ fitted["B"]))
            assert o_fit == pytest.approx(f_true / f_fit, rel=1e-12)

    def test_positive_and_spam_free(self):
        topo, b, models = toy_models(3)
        gens = models["B"].generators
        rng = np.random.default_rng(0)
        fitted = {"B": np.clip(models["B"].lambdas + rng.normal(0, 5e-4, len(gens)), 0, None)}
        batch = sample_circuit({"B": b}, 6, 2, 0, range(8))
        o = pec_observable(models, (fitted,), batch, gens)
        assert np.all(o > 0)

    def test_log_additive_over_segments(self):
        topo, b, models = toy_models(4)
        gens = models["B"].generators
        fitted = {"B": models["B"].lambdas * 0.9}
        full = sample_circuit({"B": b}, 4, 1, 0, range(6))
        o_full = pec_observable(models, (fitted,), full, gens)
        first = CircuitBatch(full.layers, full.base[:2], full.gates[:2], entering(full)[2].T)
        second = CircuitBatch(full.layers, full.base[2:], full.gates[2:], full.final)
        o_first = pec_observable(models, (fitted,), first, gens)
        o_second = pec_observable(models, (fitted,), second, gens)
        assert o_full == pytest.approx(o_first * o_second, rel=1e-12)

    def test_vanished_fitted_fidelity_raises(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        fitted = {"B": np.full(len(gens), np.inf)}
        batch = bare_circuits(b, [PauliString.from_label("XI")], 2)
        with pytest.raises(ZeroDivisionError, match="layer B"):
            pec_observable(models, ({"B": models["B"].lambdas}, fitted), batch, gens)

    def test_vanished_fidelity_raises_only_when_a_step_uses_the_layer(self):
        topo = Topology(2, ((0, 1),))
        gens = GeneratorSet(topo)
        layers = {"B": CliffordLayer(2, ((0, 1),), (), "B"), "G": CliffordLayer(2, (), (), "G")}
        rng = np.random.default_rng(2)
        models = {lab: random_model(gens, layer, rng=rng) for lab, layer in layers.items()}
        fitted = {"B": models["B"].lambdas, "G": np.full(len(gens), np.inf)}
        batch = sample_circuit(layers, 6, 1, 0, range(8))
        assert np.any(batch.base == 1)  # labels sort as B, G
        with pytest.raises(ZeroDivisionError, match="layer G"):
            pec_observable(models, (fitted,), batch, gens)
        only_b = CircuitBatch(batch.layers, np.zeros_like(batch.base), batch.gates, batch.final)
        o = pec_observable(models, (fitted,), only_b, gens)
        assert np.all(np.isfinite(o)) and np.all(o > 0)

    @pytest.mark.parametrize("n_fits", [1, 2, 3])
    def test_any_number_of_fits(self, n_fits):
        gens, layers, models = isolated_qubit_setup()
        fits = perturbed_fits(models, seed=6, count=n_fits)
        batch = sample_circuit(layers, 5, 2, 0, range(9))
        log_o = np.log(pec_observable(models, fits, batch, gens))
        assert log_o.shape == (n_fits, 9)
        ref = reference_log_observable(models, fits, batch, gens)
        np.testing.assert_allclose(log_o, ref, rtol=0, atol=1e-12)
        # A fit's row does not depend on the fits beside it.
        for f, fit in enumerate(fits):
            alone = np.log(pec_observable(models, [fit], batch, gens))
            np.testing.assert_array_equal(log_o[f], alone[0])

    @pytest.mark.parametrize("setup", ["small_plan", "eleven_layers", "isolated_qubit", "shuffled"])
    def test_matches_string_by_string_reference(self, setup, request):
        if setup in ("small_plan", "eleven_layers"):
            if setup == "small_plan":
                plan = request.getfixturevalue("small_plan")
                gens, layers = plan.generators, {lab: lp.layer for lab, lp in plan.layers.items()}
            else:
                # B = lcm(11, 24) = 264: the batch's base and gates are uint16.
                gens, layers = GeneratorSet(Topology(3, ((0, 1), (1, 2)))), cz_layers(11)
            rng = np.random.default_rng(3)
            models = {lab: random_model(gens, layer, rng=rng) for lab, layer in layers.items()}
        else:
            gens, layers, models = isolated_qubit_setup()
            if setup == "shuffled":
                plain_gens, plain_models = gens, models
                gens, layers, models = shuffled(gens, layers, models, seed=4)
        fits = perturbed_fits(models, seed=5)
        n = gens.topology.n
        for w in (1, 3, n):
            batch = sample_circuit(layers, 7, w, w, range(12))
            assert batch.base.dtype == (np.uint16 if setup == "eleven_layers" else np.uint8)
            log_o = np.log(pec_observable(models, fits, batch, gens))
            ref = reference_log_observable(models, fits, batch, gens)
            np.testing.assert_allclose(log_o, ref, rtol=0, atol=1e-12)
            if setup == "shuffled":
                # The rates permuted with the strings give the same observable.
                where = [gens.strings.index(p) for p in plain_gens.strings]
                plain_fits = [{lab: r[where] for lab, r in fit.items()} for fit in fits]
                plain = pec_observable(plain_models, plain_fits, batch, plain_gens)
                np.testing.assert_allclose(log_o, np.log(plain), rtol=0, atol=1e-12)


class TestSampleCircuit:
    def setup_method(self):
        topo = square_lattice(4, 5)
        self.layers = {l.label: l for l in four_layer_config(topo, "closed_squares")}
        self.n = topo.n

    @pytest.mark.parametrize("w", [2, 20])
    def test_final_weight_constraint(self, w):
        batch = sample_circuit(self.layers, 40, w, 0, [11 + c for c in range(4)])
        beta0 = entering(batch)[0]
        for c in range(4):
            assert np.count_nonzero(batch.final[:, c]) == w
            p = pauli(beta0[c])
            for j in range(40):
                p = conjugate(step_layer(batch, c, j), p)
            assert p == pauli(batch.final[:, c])

    def test_deterministic_under_seed(self):
        a = sample_circuit(self.layers, 10, 5, 0, [3])
        b = sample_circuit(self.layers, 10, 5, 0, [3])
        for field in ("base", "gates", "final"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(entering(a)[0], entering(b)[0])

    def test_full_weight_on_one_qubit_toy(self):
        layer = CliffordLayer(1, (), (), "B")
        batch = sample_circuit({"B": layer}, 5, 1, 0, [0])
        assert np.count_nonzero(batch.final) == 1
        assert np.count_nonzero(entering(batch)[0]) == 1

    def test_weight_out_of_range(self):
        for w in (21, -1):
            with pytest.raises(ValueError):
                sample_circuit(self.layers, 5, w, 0, [0])
        with pytest.raises(ValueError):
            sample_circuit(self.layers, 0, 2, 0, [0])

    def test_matches_scalar_draws(self):
        # One bounded draw below B = lcm(L, 24) per circuit (B = 24 for
        # L = 1, 2, 3, 4; 120 for 5; 264 for 11) reproduces one scalar draw
        # per slot.
        cases = [(self.layers, 40, (0, 2, 20))]
        for n_layers in (1, 2, 3, 5, 11):
            layers = {
                f"L{i:02d}": CliffordLayer(3, ((0, 1),) if i % 2 else (), (), f"L{i:02d}")
                for i in range(n_layers)
            }
            cases.append((layers, 7, (0, 1, 3)))
        for layers, j_layers, weights in cases:
            n = layers[next(iter(layers))].n
            for w in weights:
                keys = range(60)
                batch = sample_circuit(layers, j_layers, w, 0, keys)
                for c, k in enumerate(keys):
                    base, gates, final = scalar_sample(layers, j_layers, w, model_rng(0, k))
                    assert np.array_equal(batch.base[:, c], base)
                    assert np.array_equal(batch.gates[:, :, c], gates.reshape(j_layers, n))
                    assert np.array_equal(batch.final[:, c], final)

    @pytest.mark.parametrize("r", [2, 3, 5, 24, 120, 264, 1000, 2**31 + 1, 2**32 - 1])
    def test_lemire_matches_numpy_bounded_draw(self, r):
        # Words whose low product word (w r) mod 2^32 sits at, just above and
        # below numpy's rejection threshold (2^32 - r) mod r: ceil(k 2^32 / r)
        # + d leaves k 2^32 mod r stepped by d r, and an odd r reaches any
        # low word through its inverse mod 2^32.
        threshold = 2**32 % r
        if r <= 1000:
            crafted = [-(-k * 2**32 // r) + d for k in range(r) for d in (0, 1, 2)]
        else:
            inverse = pow(r, -1, 2**32)
            crafted = [(low * inverse) % 2**32 for low in (0, threshold - 1, threshold, threshold + 1)]
        crafted += np.random.default_rng(r).integers(0, 2**32, 500).tolist()
        words = np.array([w for w in crafted if w < 2**32], dtype=np.uint32)
        values, rejected = pec._lemire(words, r)
        low = (words.astype(np.uint64) * r) % 2**32
        # A power of two has no threshold and rejects nothing.
        assert rejected.any() == (threshold > 0) and (low == threshold).any() and not rejected.all()
        more = np.random.default_rng(0).integers(0, 2**32, 40).tolist()
        for w, value, rej in zip(words.tolist(), values.tolist(), rejected):
            # An accepted word is one draw; a rejected one makes numpy read on.
            got, consumed = scalar_lemire(iter([w, *more]), r)
            assert rej == (consumed > 1)
            if not rej:
                assert value == got
        # The scalar copy is numpy's draw on a real stream: PCG64's 32-bit
        # words are the low and then the high half of each raw output.
        rng = np.random.default_rng(r)
        stream = np.random.default_rng(r).bit_generator.random_raw(1000).astype("<u8").view("<u4")
        it = iter(stream.tolist())
        want = [scalar_lemire(it, r)[0] for _ in range(100)]
        assert rng.integers(0, r, size=100).tolist() == want

    @pytest.mark.parametrize("n, weight", [(1, 1), (2, 1), (3, 2), (8, 0), (8, 5), (20, 20)])
    @pytest.mark.parametrize("lookahead", [1, 4, 16])
    def test_support_matches_numpy_shuffle(self, monkeypatch, n, weight, lookahead):
        # Rows of random words, some with low bits that reject for long runs
        # and some too short for their draws: a row is redrawn exactly when
        # numpy's own draws read past its words, past the look-ahead at one
        # position, or through a rejected letter word.
        monkeypatch.setattr(pec, "_LOOKAHEAD", lookahead)
        rng = np.random.default_rng(n * 100 + lookahead)
        width = 2 * n + weight
        tail = rng.integers(0, 2**32, size=(400, width), dtype=np.uint64).astype(np.uint32)
        tail[::3] |= np.uint32(0xFFFF)  # j = mask: rejected unless i = mask
        tail[::7] = 0  # j = 0 always, and a letter word of zero is rejected
        support, letters, redraw = pec._support_draws(tail, n, weight)
        more = np.random.default_rng(0).integers(0, 2**32, 40 * n + 40).tolist()
        outcomes = set()
        for row, words in enumerate(tail.tolist()):
            want, want_letters, read, longest, rejected = scalar_support(iter(words + more), n, weight)
            expect = read > width or longest > lookahead or rejected
            assert redraw[row] == expect
            outcomes.add(expect)
            if not expect:
                assert support[row].tolist() == want
                assert letters[row].tolist() == want_letters
        assert outcomes == {False, True} or n == 1

    @pytest.mark.parametrize("lookahead, chunk_words", [(1, 1 << 15), (2, 1), (16, 600)])
    def test_fallback_and_chunks_match_scalar_draws(self, monkeypatch, lookahead, chunk_words):
        # A look-ahead of one word sends most circuits back to the
        # generator's own calls; small chunks split the batch's word blocks.
        monkeypatch.setattr(pec, "_LOOKAHEAD", lookahead)
        monkeypatch.setattr(pec, "_CHUNK_WORDS", chunk_words)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        for layers, j_layers, w in ((self.layers, 40, 20), (self.layers, 40, 2), (cz_layers(11), 7, 3)):
            monkeypatch.setattr(CountingGenerator, "permutations", 0)
            batch = sample_circuit(layers, j_layers, w, 0, range(30))
            assert_scalar_draws(layers, j_layers, w, batch, start_states(0, range(30)))
            if lookahead == 1:
                assert CountingGenerator.permutations > 1

    @pytest.mark.parametrize("lookahead, chunk_words", [(16, 1 << 15), (2, 600), (1, 1)])
    def test_mixed_weights_match_per_circuit_generators(self, monkeypatch, lookahead, chunk_words):
        # One call with weights 0, 2 and n side by side draws each circuit
        # as its own generator would.  A small look-ahead sends some rows to
        # the generator's own calls, and small chunks split the word blocks;
        # a W = 0 row never needs its support.
        monkeypatch.setattr(pec, "_LOOKAHEAD", lookahead)
        monkeypatch.setattr(pec, "_CHUNK_WORDS", chunk_words)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        monkeypatch.setattr(CountingGenerator, "permutations", 0)
        weights = [(0, 2, self.n)[c % 3] for c in range(45)]
        keys = [7 * c + 1 for c in range(45)]
        batch = sample_circuit(self.layers, 40, weights, 3, keys)
        want = per_circuit_sample(self.layers, 40, weights, [model_rng(3, k) for k in keys])
        for field in ("base", "gates", "final"):
            a, b = getattr(batch, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert np.count_nonzero(batch.final, axis=0).tolist() == weights
        if lookahead < 16:
            # Some rows were redrawn, none of them for a W = 0 support.
            assert 1 < CountingGenerator.permutations <= np.count_nonzero(weights)

    def test_empty_batch(self):
        batch = sample_circuit(self.layers, 3, 2, 0, [])
        assert batch.base.shape == (3, 0) and batch.gates.shape == (3, 20, 0)
        assert batch.final.shape == (20, 0)

    def test_limit_pass_memory(self):
        # A pass at the limits (1000 circuits of 1000 steps on garnet20)
        # holds its 21 MB of uint8 draws once: base and gates are views of
        # them, and no step-major copy or intp index of the whole pass is made.
        gens = GeneratorSet(square_lattice(4, 5))
        rng = np.random.default_rng(8)
        models = {lab: random_model(gens, layer, rng=rng) for lab, layer in self.layers.items()}
        fits = perturbed_fits(models, seed=9)
        tracemalloc.start()
        try:
            batch = sample_circuit(self.layers, pec.MAX_J_LAYERS, 2, 0, range(pec.MAX_CIRCUITS))
            o = pec_observable(models, fits, batch, gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6, f"pass peaked at {peak / 1e6:.1f} MB"
        assert batch.base.dtype == batch.gates.dtype == np.uint8
        assert batch.base.base is batch.gates.base is not None  # views of the draws
        assert o.shape == (2, pec.MAX_CIRCUITS) and np.all(o > 0)


@st.composite
def random_base_layers(draw):
    """1, 2, 3, 5 or 11 random CZ layers (non-overlapping pairs) on 1-8
    qubits: B = lcm(L, 24) is 24, 24, 24, 120 and 264 (uint16 draws)."""
    n = draw(st.integers(1, 8))
    layers = {}
    for i in range(draw(st.sampled_from([1, 2, 3, 5, 11]))):
        order = draw(st.permutations(range(n)))
        pairs = tuple(
            (order[k], order[k + 1])
            for k in range(0, n - 1, 2)
            if draw(st.booleans())
        )
        layers[f"L{i}"] = CliffordLayer(n, pairs, (), f"L{i}")
    return n, layers


@settings(max_examples=150, deadline=None)
@given(
    spec=random_base_layers(),
    j_layers=st.integers(1, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_propagation_matches_conjugate(spec, j_layers, data, seed):
    # Every weight from 0 to n, and a look-ahead small enough to send some
    # circuits back to the generator's own calls: the batch is the scalar
    # draws, and propagates as `conjugate` does.
    n, layers = spec
    w = data.draw(st.integers(0, n))
    with mock.patch.object(pec, "_LOOKAHEAD", data.draw(st.sampled_from([1, 3, 16]))):
        batch = sample_circuit(layers, j_layers, w, seed, range(3))
    assert_scalar_draws(layers, j_layers, w, batch, start_states(seed, range(3)))
    steps = entering(batch)
    for c in range(3):
        assert np.count_nonzero(batch.final[:, c]) == w
        p = pauli(steps[0][c])
        for j in range(j_layers):
            assert np.array_equal(digits(p), steps[j][c])
            p = conjugate(step_layer(batch, c, j), p)
        assert np.array_equal(digits(p), batch.final[:, c])



class TestPecSweep:
    def test_noiseless_characterization_zero_std(self, small_plan):
        rows = pec_sweep(
            small_plan, n_models=2, n_circuits=3, j_layers=8, weights=(2,),
            sigma=0.0, sigma_prime=0.0, baseline="unit_depth", master_seed=5,
        )
        summary = summarize_pec(rows)
        st = summary["by_weight"][2]
        assert st["std_O_c"] == pytest.approx(0.0, abs=1e-9)
        assert st["std_O_m"] == pytest.approx(0.0, abs=1e-9)
        assert st["mean_O_c"] == pytest.approx(1.0, abs=1e-9)

    def test_rows_and_summary_shape(self, small_plan):
        rows = pec_sweep(
            small_plan, n_models=2, n_circuits=2, j_layers=6, weights=(2, 4),
            sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth", master_seed=9,
        )
        assert len(rows) == 2 * 2 * 2
        summary = summarize_pec(rows)
        assert set(summary["by_weight"]) == {2, 4}
        for st in summary["by_weight"].values():
            assert st["count"] == 4

    def test_sweep_makes_no_digit_overlap_calls(self, small_plan, monkeypatch):
        # Fidelity ratios come from the per-site tables, never from a (C, K)
        # overlap matrix per step.
        calls = []
        digit_overlaps = GeneratorSet.digit_overlaps

        def counted(self, strings):
            calls.append(len(strings))
            return digit_overlaps(self, strings)

        monkeypatch.setattr(GeneratorSet, "digit_overlaps", counted)
        rows = pec_sweep(
            small_plan, n_models=1, n_circuits=4, j_layers=5, weights=(2,),
            sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth", master_seed=2,
        )
        assert len(rows) == 4
        assert calls == []

    def test_matches_per_circuit_generators(self, small_plan, monkeypatch):
        # The sweep draws exactly the circuits of one fresh generator per
        # circuit key, all weights of a model in one call, and its rows are
        # their observables.
        master, n_models, n_circuits, j_layers, weights = 4, 2, 5, 7, (0, 2, 6)
        batches = []

        def recorded(*args):
            batches.append(sample_circuit(*args))
            return batches[-1]

        monkeypatch.setattr(pec, "sample_circuit", recorded)
        rows = iter(pec_sweep(
            small_plan, n_models=n_models, n_circuits=n_circuits, j_layers=j_layers,
            weights=weights, sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth",
            master_seed=master,
        ))
        base_layers = {lab: lp.layer for lab, lp in small_plan.layers.items()}
        got = iter(batches)
        for mi in range(n_models):
            rng = model_rng(master, mi)
            models = generate_models(small_plan, rng)
            res = characterize_and_fit(small_plan, models, 1e-4, 1e-2, "unit_depth", rng)
            fits = (res.fitted["conventional"], res.fitted["mlcb"])
            pairs = [(w, ci) for w in weights for ci in range(n_circuits)]
            rngs = [model_rng(master + 7919, mi * 100000 + ci * 100 + w) for w, ci in pairs]
            want = per_circuit_sample(base_layers, j_layers, [w for w, _ in pairs], rngs)
            batch = next(got)
            for field in ("base", "gates", "final"):
                a, b = getattr(batch, field), getattr(want, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            ref = reference_log_observable(models, fits, want, small_plan.generators)
            for c, (w, ci) in enumerate(pairs):
                row = next(rows)
                assert (row["model_seed"], row["circuit_seed"], row["W"]) == (mi, ci, w)
                assert math.log(row["O_c"]) == pytest.approx(ref[0, c], rel=0, abs=1e-12)
                assert math.log(row["O_m"]) == pytest.approx(ref[1, c], rel=0, abs=1e-12)
        assert next(got, None) is None and next(rows, None) is None

    def test_weights_share_passes(self, small_plan, monkeypatch):
        # A weight's rows do not depend on the weights propagated beside it.
        passes = record_passes(monkeypatch)
        args = dict(
            n_circuits=5, j_layers=6, sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth",
            master_seed=3,
        )
        together = pec.model_rows(small_plan, 1, weights=(0, 2, 6), **args)
        assert passes == [15]
        for w in (0, 2, 6):
            passes.clear()
            alone = pec.model_rows(small_plan, 1, weights=(w,), **args)
            assert passes == [5]
            assert alone == [row for row in together if row["W"] == w]

    def test_passes_hold_at_most_max_circuits(self, small_plan, monkeypatch):
        passes = record_passes(monkeypatch)
        rows = pec.model_rows(
            small_plan, 0, n_circuits=400, j_layers=2, weights=(1, 2, 3), sigma=1e-4,
            sigma_prime=1e-2, baseline="unit_depth", master_seed=0,
        )
        assert len(rows) == 1200 and sum(passes) == 1200
        assert len(passes) == 2 and max(passes) <= pec.MAX_CIRCUITS
        want = [(w, c) for w in (1, 2, 3) for c in range(400)]
        assert [(r["W"], r["circuit_seed"]) for r in rows] == want

    @pytest.mark.parametrize("case", ["circuits", "weight"])
    def test_colliding_seed_keys_rejected(self, small_plan, case):
        # Circuit keys mi*100000 + ci*100 + w stay distinct only for ci < 1000
        # and w < 100.
        if case == "circuits":
            with pytest.raises(ValueError, match=re.escape("circuits must be in [1, 1000]")):
                pec_sweep(
                    small_plan, n_models=1, n_circuits=1001, j_layers=2, weights=(2,),
                    sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth", master_seed=0,
                )
        else:
            # On 200 qubits the key limit, not n, bounds W.
            with pytest.raises(ValueError, match=re.escape("integers in [0, 99], got [100]")):
                check_limits(200, 2, 2, [100])
            check_limits(200, 2, 2, [99])


class TestModelRngStates:
    # Entropies and spawn keys on both sides of 2**32 and beyond 2**64, so
    # both take one, two and three 32-bit words (entropies of more than four
    # words are hashed into the pool after its first mixing pass).
    KEYS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**96 - 1, 7919 * 100000 + 99]

    @pytest.mark.parametrize(
        "entropy", [0, 7919, 2**32 - 1, 2**32, 2**64 + 7918, 2**96 + 5, 2**128 + 3, 2**160 + 1]
    )
    def test_states_are_model_rng_states(self, entropy):
        states = pec._start_states(entropy, self.KEYS)
        assert states == [model_rng(entropy, k).bit_generator.state for k in self.KEYS]

    def test_draws_match(self):
        # A generator set to the state draws model_rng's stream.
        rng = np.random.default_rng()
        for key, state in zip(self.KEYS, pec._start_states(12, self.KEYS)):
            rng.bit_generator.state = state
            assert np.array_equal(rng.integers(0, 2**40, 16), model_rng(12, key).integers(0, 2**40, 16))

    def test_each_key_alone(self):
        # A key's state does not depend on the keys batched with it.
        together = pec._start_states(5, self.KEYS)
        assert together == [pec._start_states(5, [k])[0] for k in self.KEYS]

    def test_edges(self):
        assert pec._start_states(3, []) == []
        assert pec._start_states(3, np.arange(3)) == pec._start_states(3, [0, 1, 2])
        for seed, keys in ((-1, [0]), (0, [2, -1])):
            with pytest.raises(ValueError, match="nonnegative"):
                pec._start_states(seed, keys)
