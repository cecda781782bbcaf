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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    # All tuples of n_parts nonnegative ints summing to total, ascending lex:
    # stars and bars, with the n_parts - 1 bars' positions among total +
    # n_parts - 1 slots taken in lexicographic order; the gaps between
    # consecutive bars are the parts.
    end = (total + n_parts - 1,)
    for bars in itertools.combinations(range(total + n_parts - 1), n_parts - 1):
        stops = (-1,) + bars + end
        yield tuple(b - a - 1 for a, b in zip(stops, stops[1:]))


@lru_cache(maxsize=16)
def _index_set(p, m, d):
    """The index set of (p, m, d) in enumeration order, built once and shared
    by every model, plan and hash of that shape."""
    n = m * d
    return tuple(MultiIndex(c) for k in range(1, p + 1) for c in _compositions(k, n))


def enumerate_indices(p, m, d):
    """All multi-indices with 1 <= |a| <= p over an M*d flat layout.

    Deterministic order: graded by |a|, then ascending lexicographic on the
    flat tuple. The constant (empty) index is excluded; models house it as S_0.
    Each call returns a new list of the indices `_index_set` built once.
    """
    index_space_dim(p, m, d)  # the range check: p, m and d are at least 1
    return list(_index_set(p, m, d))


def _set_bytes(p, m, d):
    """Bytes the enumerating and the enumerated index set of (p, m, d) hold: 8
    a tuple entry, 512 an index for its tuple, MultiIndex, cached order and
    factorial and list slots (tracemalloc peaks read up to 410 an index at
    1000 to 12340 indices), and 2 MiB for what the interpreter keeps of the
    freed temporaries (the same peaks read up to 0.4 MB more in a fresh
    process than after other work)."""
    return 8 * (index_space_dim(p, m, d) - 1) * (m * d + 64) + (2 << 20)


def index_space_dim(p, m, d):
    """Count of indices with 0 <= |a| <= p (constant term included).

    Stars and bars: sum_{k<=p} C(M*d + k - 1, k) = C(M*d + p, p).  p, m
    and d must each be at least 1.
    """
    for key, value in (("p", p), ("m", m), ("d", d)):
        if value < 1:
            raise ValidationError(f"key {key!r} must be at least 1, got {value}")
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
