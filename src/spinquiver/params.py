"""Model and deformation-parameter bookkeeping for the framed cyclic quiver.

A model is fixed by three positive integers (m, d, n): the number of cycle
vertices, the number of framing arrows into vertex 0, and the common rank at
every cycle vertex.  The deformation data is one nonzero complex scalar q_s
per cycle vertex; everything else (cumulative products t_s, the total product
t, and the framing value q_inf = t^(-n)) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroParameter

DEFAULT_K_MAX = 24
DEFAULT_REGULARITY_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the framed cyclic quiver: m cycle vertices, d framing arrows, rank n."""

    m: int
    d: int
    n: int

    def __post_init__(self):
        for name in ("m", "d", "n"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def total_dim(self) -> int:
        """Dimension of the full representation space column span (cycle + framing vertex)."""
        return self.m * self.n + 1


@dataclass(frozen=True)
class ParameterSet:
    """Deformation parameters q_s with their cumulative products.

    Attributes
    ----------
    q : tuple of complex
        The per-vertex scalars q_0..q_{m-1}, all nonzero.
    n : int
        Rank used to derive q_inf.
    t_cum : tuple of complex
        Cumulative products t_s = q_0 * ... * q_s.
    t : complex
        Total product t = t_{m-1}.
    q_inf : complex
        Framing parameter t^(-n).
    """

    q: tuple
    n: int
    t_cum: tuple = field(init=False)
    t: complex = field(init=False)
    q_inf: complex = field(init=False)

    def __post_init__(self):
        q = tuple(complex(v) for v in self.q)
        if any(v == 0 for v in q):
            raise ZeroParameter("every q_s must be nonzero")
        object.__setattr__(self, "q", q)
        t_cum = []
        acc = 1.0 + 0.0j
        for v in q:
            acc = acc * v
            t_cum.append(acc)
        object.__setattr__(self, "t_cum", tuple(t_cum))
        object.__setattr__(self, "t", t_cum[-1])
        object.__setattr__(self, "q_inf", t_cum[-1] ** (-self.n))

    @property
    def m(self) -> int:
        return len(self.q)

    def t_at(self, s: int) -> complex:
        """Cumulative product t_s, with the virtual entry t_{-1} = 1."""
        if s == -1:
            return 1.0 + 0.0j
        return self.t_cum[s]


def derive_params(q, n: int) -> ParameterSet:
    """Build a ParameterSet from the raw scalars q_0..q_{m-1} and the rank n."""
    return ParameterSet(q=tuple(q), n=int(n))


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of the finite resonance scan."""

    ok: bool
    violations: tuple
    unverifiable_beyond_k_max: bool

    def __bool__(self) -> bool:
        return self.ok


def check_regularity(params: ParameterSet, k_max: int = DEFAULT_K_MAX,
                     tol: float = DEFAULT_REGULARITY_TOL) -> RegularityResult:
    """Scan for resonances t_s^(-1) t_s' = t^k among the cumulative products.

    The scan runs over -1 <= s <= s' <= m-1 and |k| <= k_max, skipping k = 0
    when s = s' (the ratio is trivially 1) and the tautological full-cycle
    case (s, s') = (-1, m-1) with k = 1, where the ratio equals t identically;
    that case carries the same content as the root-of-unity scan at s = s'.

    Returns a RegularityResult carrying every violating triple (s, s', k).
    When |t| is within tol^(1/k_max) of 1, large-|k| resonances cannot be
    excluded by a finite scan and the result is flagged unverifiable.
    """
    m = params.m
    t = params.t
    violations = []
    for s in range(-1, m):
        for sp in range(s, m):
            ratio = params.t_at(sp) / params.t_at(s)
            for k in range(-k_max, k_max + 1):
                if s == sp and k == 0:
                    continue
                if s == -1 and sp == m - 1 and k == 1:
                    continue
                power = t ** k
                if abs(ratio - power) <= tol * max(abs(ratio), abs(power)):
                    violations.append((s, sp, k))
    near_unit = abs(abs(t) - 1.0) < tol ** (1.0 / k_max)
    return RegularityResult(ok=not violations, violations=tuple(violations),
                            unverifiable_beyond_k_max=near_unit)
