"""Symplectic (x, z) bit-mask representation of n-qubit Pauli operators.

Qubit q of a string corresponds to bit q of the masks and to character q of
the text label, so "XIZ" is X on qubit 0, I on qubit 1, Z on qubit 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_HEX_DIGIT_TO_CHAR = str.maketrans("0123", "IXZY")


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator up to phase.

    A Pauli fidelity does not depend on the operator's phase, so none is
    kept: Clifford conjugation maps a Pauli to another up to phase, and the
    product of two Paulis is, up to phase, the XOR of their masks.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit mask exceeds qubit count")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for q, c in enumerate(label):
            try:
                xb, zb = _CHAR_TO_BITS[c]
            except KeyError:
                raise ValueError(f"invalid Pauli character {c!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        xb, zb = _CHAR_TO_BITS[letter]
        return cls(n, xb << qubit, zb << qubit)

    def label(self) -> str:
        # Read as hex, a mask's binary digits put bit q in hex digit q, so
        # hex digit q of x + 2 z is the qubit's digit x_q + 2 z_q.  Hex
        # digits are written most significant first, so the text is
        # reversed; [: n] keeps "" for n = 0, which formats as "0".
        spread = int(format(self.x_bits, "b"), 16) + 2 * int(format(self.z_bits, "b"), 16)
        return format(spread, f"0{self.n}x")[::-1][: self.n].translate(_HEX_DIGIT_TO_CHAR)

    def support(self) -> tuple[int, ...]:
        m = self.x_bits | self.z_bits
        return tuple(q for q in range(self.n) if (m >> q) & 1)

    def key(self) -> tuple[int, int]:
        """Hashable key used for fidelity indexing."""
        return (self.x_bits, self.z_bits)


def digits(strings, n: int) -> np.ndarray:
    """(len(strings), n) uint8 digits x + 2z per qubit."""
    nbytes = (n + 7) // 8

    def bits(masks):
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
        return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=n, bitorder="little")

    return bits(p.x_bits for p in strings) + 2 * bits(p.z_bits for p in strings)


def from_digits(rows: np.ndarray, n: int) -> list[PauliString]:
    """The strings of (R, n) digit rows; inverse of `digits`."""
    xs, zs = (np.packbits(bits, axis=1, bitorder="little") for bits in (rows & 1, rows >> 1))
    return [
        PauliString(n, int.from_bytes(x.tobytes(), "little"), int.from_bytes(z.tobytes(), "little"))
        for x, z in zip(xs, zs)
    ]

