"""Symplectic (x, z) bit-mask representation of n-qubit Pauli operators.

Qubit q of a string corresponds to bit q of the masks and to character q of
the text label, so "XIZ" is X on qubit 0, I on qubit 1, Z on qubit 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}

# Dense-vector digit per qubit: I=0, X=1, Z=2, Y=3 (digit = x + 2z).
_DIGIT_TO_BITS = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}

DENSE_QUBIT_LIMIT = 12


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with a +/-1 sign.

    Only signs (never factors of i) survive the operations used here:
    Clifford conjugation maps a Hermitian Pauli to +/- another Hermitian
    Pauli.  Products of two Paulis can pick up +/-i; `multiply` folds those
    to the sign of the imaginary part (i -> +1, -i -> -1), which is
    documented rather than meaningful -- every fidelity lookup is unsigned.
    """

    n: int
    x_bits: int
    z_bits: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit mask exceeds qubit count")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        x = z = 0
        for q, c in enumerate(label):
            try:
                xb, zb = _CHAR_TO_BITS[c]
            except KeyError:
                raise ValueError(f"invalid Pauli character {c!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z, sign)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        xb, zb = _CHAR_TO_BITS[letter]
        return cls(n, xb << qubit, zb << qubit)

    def label(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(self.x_bits >> q) & 1, (self.z_bits >> q) & 1]
            for q in range(self.n)
        )

    def __str__(self) -> str:
        return ("-" if self.sign < 0 else "") + self.label()

    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def support(self) -> tuple[int, ...]:
        m = self.x_bits | self.z_bits
        return tuple(q for q in range(self.n) if (m >> q) & 1)

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def unsigned(self) -> "PauliString":
        return self if self.sign == 1 else PauliString(self.n, self.x_bits, self.z_bits)

    def key(self) -> tuple[int, int]:
        """Sign-free hashable key used for fidelity indexing."""
        return (self.x_bits, self.z_bits)

    def dense_index(self) -> int:
        """Index into a length-4**n dense vector (digit x+2z per qubit)."""
        idx = 0
        for q in range(self.n - 1, -1, -1):
            idx = 4 * idx + ((self.x_bits >> q) & 1) + 2 * ((self.z_bits >> q) & 1)
        return idx

    @classmethod
    def from_dense_index(cls, n: int, idx: int) -> "PauliString":
        x = z = 0
        for q in range(n):
            xb, zb = _DIGIT_TO_BITS[idx % 4]
            x |= xb << q
            z |= zb << q
            idx //= 4
        return cls(n, x, z)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def all_pauli_strings(n: int):
    """Iterate all 4**n unsigned strings in dense-index order."""
    for idx in range(4**n):
        yield PauliString.from_dense_index(n, idx)


def digits(strings, n: int) -> np.ndarray:
    """(len(strings), n) uint8 digits x + 2z per qubit, signs dropped."""
    nbytes = (n + 7) // 8

    def bits(masks):
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
        return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=n, bitorder="little")

    return bits(p.x_bits for p in strings) + 2 * bits(p.z_bits for p in strings)


def from_digits(rows: np.ndarray, n: int) -> list[PauliString]:
    """The unsigned strings of (R, n) digit rows; inverse of `digits`."""
    xs, zs = (np.packbits(bits, axis=1, bitorder="little") for bits in (rows & 1, rows >> 1))
    return [
        PauliString(n, int.from_bytes(x.tobytes(), "little"), int.from_bytes(z.tobytes(), "little"))
        for x, z in zip(xs, zs)
    ]


def symplectic_inner(a: PauliString, b: PauliString) -> int:
    """0 if the two Paulis commute, 1 if they anticommute."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) & 1


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Signed product a*b; the unsigned part is the XOR of the bit masks.

    Phases +/-i are folded onto the sign of their imaginary part, e.g.
    X*Z = -iY becomes Y with sign -1.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    x = a.x_bits ^ b.x_bits
    z = a.z_bits ^ b.z_bits
    # P = i^{|x&z|} X^x Z^z; collect the power of i left over after
    # reordering X^xa Z^za X^xb Z^zb into canonical form.
    k = (
        (a.x_bits & a.z_bits).bit_count()
        + (b.x_bits & b.z_bits).bit_count()
        + 2 * (a.z_bits & b.x_bits).bit_count()
        - (x & z).bit_count()
    ) % 4
    sign = a.sign * b.sign * (1 if k in (0, 1) else -1)
    return PauliString(a.n, x, z, sign)


@dataclass(frozen=True)
class FidelityVector:
    """A complete assignment of Pauli fidelities f_alpha for all 4**n strings."""

    n: int
    values: tuple[float, ...]  # dense order, values[0] = f_identity

    def __post_init__(self):
        if len(self.values) != 4**self.n:
            raise ValueError(
                f"fidelity vector must have 4**n = {4**self.n} entries, "
                f"got {len(self.values)}"
            )

    @classmethod
    def from_function(cls, n: int, fn) -> "FidelityVector":
        return cls(n, tuple(float(fn(p)) for p in all_pauli_strings(n)))

    def value(self, p: PauliString) -> float:
        return self.values[p.dense_index()]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


# Single-qubit transform kernel in digit order (I, X, Z, Y):
# K[a, b] = (-1)^{<a, b>} for single-qubit Paulis a, b.
_WH_KERNEL = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


def _apply_kernel(vec: np.ndarray, n: int) -> np.ndarray:
    out = vec.reshape((4,) * n) if n else vec
    for axis in range(n):
        out = np.tensordot(_WH_KERNEL, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out.reshape(-1)

def walsh_hadamard(f: FidelityVector) -> dict[PauliString, float]:
    """Error probabilities p_alpha = 4^-n sum_beta f_beta (-1)^{<alpha,beta>}.

    The normalization makes the probabilities sum to one when f_identity is
    one (equivalently, it inverts f_beta = sum_alpha p_alpha
    (-1)^{<alpha,beta>}).  The transform factorizes over qubits, so it costs
    O(n 4^n) rather than O(16^n); it is gated at n <= 12 to avoid runaway
    memory use.
    """
    n = f.n
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense transform limited to n <= {DENSE_QUBIT_LIMIT}")
    probs = _apply_kernel(f.as_array(), n) / 4**n
    return {p: float(probs[i]) for i, p in enumerate(all_pauli_strings(n))}


def inverse_walsh_hadamard(probs: dict[PauliString, float]) -> FidelityVector:
    """Fidelities from a probability map: f_beta = sum_alpha p_alpha
    (-1)^{<alpha,beta>} (the kernel squares to 4^n times the identity)."""
    if not probs:
        raise ValueError("empty probability map")
    n = next(iter(probs)).n
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense transform limited to n <= {DENSE_QUBIT_LIMIT}")
    vec = np.zeros(4**n)
    for p, v in probs.items():
        vec[p.dense_index()] = v
    vals = _apply_kernel(vec, n)
    return FidelityVector(n, tuple(float(v) for v in vals))
