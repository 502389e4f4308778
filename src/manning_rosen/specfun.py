"""Special-function kernel: log-gamma, Jacobi polynomials, Gauss-Legendre rules.

Everything downstream that touches gamma-function ratios goes through
``ln_gamma`` and log-space arithmetic, because the normalization constants
involve arguments well past the overflow point of Gamma itself.  The one
Jacobi recurrence runs in y = 1 + x, which keeps its digits near x = -1.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["ln_gamma", "ln_gamma_ratio", "jacobi", "QuadratureRule", "gauss_legendre"]


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# Stirling series of ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2: coefficients
# B_2k / (2k (2k - 1)) of z^(1 - 2k), k = 1..5; the first term left out is below
# 2e-3 / z^11, about 1e-16 at z = _STIRLING_MIN
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_MIN = 16.0


def _stirling_tail(z: float) -> float:
    inv_sq = 1.0 / (z * z)
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * inv_sq + coef
    return total / z


def ln_gamma_ratio(x: float, s: float) -> float:
    """ln Gamma(x + s) - ln Gamma(x) for x > 0 and x + s > 0.

    Two ``ln_gamma`` values near x ln x cancel when s << x, leaving their
    rounding, about 1e-16 x ln x, in the difference.  For x >= 16 the
    Stirling series is subtracted term by term instead:
    (x - 1/2) log1p(s/x) + s ln(x + s) - s plus the tails at x + s and x,
    whose rounding scales with s rather than x.
    """
    if min(x, x + s) < _STIRLING_MIN:
        return ln_gamma(x + s) - ln_gamma(x)
    return ((x - 0.5) * math.log1p(s / x) + s * math.log(x + s) - s
            + _stirling_tail(x + s) - _stirling_tail(x))


def _jacobi_y(n: int, a: float, b: float, y: np.ndarray) -> np.ndarray:
    """P_n^(a,b)(y - 1) by the ascending three-term recurrence in y = 1 + x.

    Its factor c2 + c3 x is c3 y - d, d = (2k+s-1) (2s (b+2k-1) + 4k (k-1)),
    s = a + b: a sum of positive terms, so nothing cancels near x = -1.
    Each step ((c3 y - d) p - c4 p_prev) / c1 allocates one array, c3 y, and
    does the rest in place, in the same order, so it rounds as the one
    expression does; ``y`` is never written, and may be read-only.
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    p = np.ones_like(y)
    if n == 0:
        return p
    apb = a + b
    p_prev, p = p, 0.5 * (apb + 2.0) * y - (b + 1.0)
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        c3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        d = (2.0 * k + apb - 1.0) * (2.0 * apb * (b + 2.0 * k - 1.0) + 4.0 * k * (k - 1.0))
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + apb)
        step = c3 * y
        step -= d
        step *= p
        p_prev *= c4  # P_{k-2} is not needed after this step
        step -= p_prev
        step /= c1
        p, p_prev = step, p
    return p


def jacobi(n: int, a: float, b: float, x):
    """Jacobi polynomial P_n^(a,b)(x) by the ascending three-term recurrence.

    Stable on x in [-1, 1], the only region used here.  Accepts scalar or
    array ``x``; exact for n = 0 (-> 1).  Runs in y = 1 + x, exact for
    x <= -1/2 (Sterbenz), so values near x = -1 keep their relative precision.
    """
    xs = np.asarray(x, dtype=float)
    result = _jacobi_y(n, a, b, 1.0 + xs)
    if np.isscalar(x) or xs.ndim == 0:
        return float(result)
    return result


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1); immutable and shareable."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def mapped(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights transplanted to the interval (lo, hi)."""
        half = 0.5 * (hi - lo)
        return lo + half * (self.nodes + 1.0), half * self.weights

    def integrate(self, fn, lo: float = -1.0, hi: float = 1.0) -> float:
        x, w = self.mapped(lo, hi)
        return float(np.sum(w * fn(x)))


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order.

    Exact for polynomials up to degree 2*order - 1.  Rules are cached and
    returned with read-only arrays, so sharing across threads is safe.
    """
    if order < 1:
        raise DomainError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)
