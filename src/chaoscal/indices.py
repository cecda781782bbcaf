"""Multi-indices for the truncated chaos expansion.

An index a = (a_i^j), i = 1..M, j = 1..d, selects Hermite order a_i^j for
basis function i on Brownian component j.  It is stored as a flat tuple of
length M*d in j-major layout: entry (i, j) sits at position j*M + (i-1), so
each component's block of M exponents is contiguous.  This layout is the
serialization contract shared by the model file format and every module
downstream.

The enumeration order of the index set {a : 1 <= |a| <= P} is graded
(by |a|), then ascending lexicographic on the flat tuple within a grade.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .hermite import hermite_upto


@dataclass(frozen=True)
class MultiIndex:
    exponents: tuple

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValidationError(f"negative exponent in {self.exponents}")

    @cached_property
    def order(self):
        """Total order |a|."""
        return sum(self.exponents)

    @cached_property
    def factorial(self):
        """a! = prod of entry factorials, as a float."""
        return float(math.prod(math.factorial(e) for e in self.exponents))

    def __len__(self):
        return len(self.exponents)


def _compositions(total, n_parts):
    # All tuples of n_parts nonnegative ints summing to total, ascending lex.
    if n_parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n_parts - 1):
            yield (first,) + rest


def enumerate_indices(p, m, d):
    """All multi-indices with 1 <= |a| <= p over an M*d flat layout.

    Deterministic order: graded by |a|, then ascending lexicographic on the
    flat tuple. The constant (empty) index is excluded; models house it as S_0.
    """
    if p < 1 or m < 1 or d < 1:
        raise ValidationError(f"require p, m, d >= 1, got ({p}, {m}, {d})")
    n = m * d
    out = []
    for k in range(1, p + 1):
        out.extend(MultiIndex(c) for c in _compositions(k, n))
    return out


def index_space_dim(p, m, d):
    """Count of indices with 0 <= |a| <= p (constant term included).

    Stars and bars: sum_{k<=p} C(M*d + k - 1, k) = C(M*d + p, p).
    """
    if p < 0 or m < 1 or d < 1:
        raise ValidationError(f"require p >= 0 and m, d >= 1, got ({p}, {m}, {d})")
    return math.comb(m * d + p, p)


def phi_eval(a, integrals):
    """Evaluate the chaos basis element Phi_a = prod H_{a_i^j}(I_i^j).

    `integrals` holds realized values of int_0^T h_i dB^j in the flat layout;
    trailing axes beyond the first are broadcast (so a (n, M*d) array of paths
    yields an (n,) array of Phi_a values when passed transposed — here we take
    integrals with the flat layout on the *last* axis).
    """
    integrals = np.asarray(integrals, dtype=float)
    if integrals.shape[-1] != len(a):
        raise ValidationError(
            f"integrals last axis {integrals.shape[-1]} != index length {len(a)}"
        )
    if a.order == 0:
        return np.ones(integrals.shape[:-1]) if integrals.ndim > 1 else 1.0
    n_max = max(a.exponents)
    out = np.ones(integrals.shape[:-1], dtype=float)
    for pos, n in enumerate(a.exponents):
        if n > 0:
            out = out * hermite_upto(n_max, integrals[..., pos])[n]
    return out if out.ndim else float(out)
