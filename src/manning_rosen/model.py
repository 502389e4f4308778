"""Manning-Rosen potential and the effective radial potential in D dimensions.

The potential, in energy units,

    V(r) = -(hbar^2 / (2 mu b^2)) * [A w(r) - alpha(alpha-1) w(r)^2],
    w(r) = exp(-r/b) / (1 - exp(-r/b)),

depends on the dimensionless coupling A, the dimensionless shape parameter
alpha, and the screening length b (potential range 1/b).  It is invariant
under alpha -> 1 - alpha.  The default unit system is atomic units
(hbar = mu = 1).

All functions are pure and accept scalar or array ``r``.
"""

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoMinimumError

__all__ = [
    "CentrifugalMode",
    "PotentialParams",
    "QuantumState",
    "potential_value",
    "potential_minimum",
    "potential_curvature",
    "effective_potential",
]


class CentrifugalMode(enum.Enum):
    """How the 1/r^2 centrifugal barrier enters the radial equation."""

    EXACT = "exact"
    APPROXIMATED = "approx"


@dataclass(frozen=True)
class PotentialParams:
    """Physical constants and Manning-Rosen shape parameters.

    ``A`` and ``alpha`` are dimensionless; ``b`` is the screening length.
    ``kappa = 2 mu / hbar^2`` is always derived, never stored.
    """

    A: float
    alpha: float
    b: float
    mu: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.A, self.alpha, self.b, self.mu, self.hbar))):
            raise DomainError(f"A, alpha, b, mu and hbar must all be finite; got {self}")
        if not (self.b > 0.0 and self.mu > 0.0 and self.hbar > 0.0):
            raise DomainError("b, mu and hbar must all be positive")
        # kappa divides by hbar^2, which underflows to 0 for a tiny hbar
        if not (self.hbar * self.hbar > 0.0 and 0.0 < self.kappa < math.inf):
            raise DomainError(f"kappa = 2 mu / hbar^2 must be a positive finite float; "
                              f"got mu={self.mu}, hbar={self.hbar}")

    @property
    def kappa(self) -> float:
        return 2.0 * self.mu / (self.hbar * self.hbar)

    @property
    def alpha_product(self) -> float:
        """alpha(alpha-1), the combination every formula depends on."""
        return self.alpha * (self.alpha - 1.0)


@dataclass(frozen=True)
class QuantumState:
    """Radial quantum number n, orbital quantum number l, dimension D."""

    n: int
    l: int
    D: int

    def __post_init__(self):
        if self.n < 0 or self.l < 0 or self.D < 2:
            raise DomainError(f"need n >= 0, l >= 0, D >= 2; got {self}")

    @property
    def q(self) -> int:
        """Combined index D + 2l - 2; the spectrum depends on (n, l, D) only
        through this."""
        return self.D + 2 * self.l - 2


def _as_positive_radius(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(arr > 0.0):  # NaN fails too
        raise DomainError("r must be positive; the potential is undefined at r <= 0")
    return arr


def _geometric(lo: float, hi: float, num: int) -> np.ndarray:
    """np.geomspace(lo, hi, num) for lo, hi > 0 and num >= 1, bit for bit.

    The same arithmetic, 10 ** linspace(log10 lo, log10 hi, num) with the
    ends pinned to lo and hi, without geomspace's argument handling, which
    costs more than the arithmetic on the grids used here.
    """
    points = np.power(10.0, np.linspace(np.log10(lo), np.log10(hi), num))
    points[0] = lo
    if num > 1:
        points[-1] = hi
    return points


def _maybe_scalar(value, template):
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(value)
    return value


def _over_b_squared(numerator: float, denominator: float, params: PotentialParams) -> float:
    """numerator / denominator, a denominator holding b^2; :class:`DomainError` where it is 0.

    b^2 underflows to 0 for b below about 1e-162, and a Python float
    division by 0 raises :class:`ZeroDivisionError`.
    """
    if denominator == 0.0:
        raise DomainError(f"a denominator holding b^2 underflows to 0 for {params}: "
                          "b is too small")
    return numerator / denominator


def _screening(params: PotentialParams, radius):
    """exp(-x) and expm1(-x) at x = r/b, the two terms that V and the stand-in are built from."""
    x = radius / params.b
    return np.exp(-x), np.expm1(-x)


def _potential(params: PotentialParams, decay, decay_m1):
    """V from ``_screening``'s pair: w = exp(-x)/(1 - exp(-x)), stable down to x ~ 1e-12."""
    w = decay / -decay_m1
    scale = _over_b_squared(1.0, params.kappa * params.b * params.b, params)
    return -scale * (params.A * w - params.alpha_product * w * w)


def _barrier(params: PotentialParams, q: int, mode: CentrifugalMode,
             radius_squared, decay, decay_m1):
    """kappa times the centrifugal barrier, (q^2 - 1)/4 C(r), from r^2 and ``_screening``'s pair."""
    prefactor = (q * q - 1.0) / 4.0
    if mode is CentrifugalMode.EXACT:
        return prefactor / radius_squared
    if mode is CentrifugalMode.APPROXIMATED:
        inv_b2 = _over_b_squared(1.0, params.b * params.b, params)
        return prefactor * inv_b2 * decay / decay_m1 ** 2
    raise DomainError(f"unknown centrifugal mode: {mode!r}")


def potential_value(params: PotentialParams, r):
    """Potential energy V(r) in the units set by ``params``.

    V(r) = -(1/(kappa b^2)) [A w - alpha(alpha-1) w^2] with
    w = exp(-r/b)/(1-exp(-r/b)).
    """
    return _maybe_scalar(_potential(params, *_screening(params, _as_positive_radius(r))), r)


def _minimum_coefficient(params: PotentialParams, failure: str) -> float:
    """alpha(alpha-1), after checking that V has an interior minimum."""
    coef = params.alpha_product
    if params.A <= 0.0 or coef <= 0.0:
        raise NoMinimumError(f"{failure}: requires A > 0 and alpha(alpha-1) > 0, "
                             f"got A={params.A}, alpha={params.alpha}")
    return coef


def potential_minimum(params: PotentialParams) -> tuple[float, float]:
    """Location and value of the interior minimum.

    r0 = b ln[1 + 2 alpha(alpha-1)/A],
    V(r0) = -(1/(kappa b^2)) A^2 / (4 alpha(alpha-1)).

    Requires A > 0 and alpha(alpha-1) > 0 (alpha > 1, or equivalently
    alpha < 0 by the alpha -> 1-alpha symmetry).  For alpha in [0, 1] the
    potential is monotone and has no interior minimum.  Raises
    :class:`DomainError` where r0 or V(r0) is not a normal float (an
    overflow or an underflow).
    """
    coef = _minimum_coefficient(params, "no interior minimum in validated regime")
    r0 = params.b * math.log1p(2.0 * coef / params.A)
    v_min = _over_b_squared(-params.A * params.A,
                            4.0 * params.kappa * params.b * params.b * coef, params)
    if not (sys.float_info.min <= r0 < math.inf and sys.float_info.min <= -v_min < math.inf):
        raise DomainError(f"the minimum (r0, V(r0)) = ({r0}, {v_min}) is not a pair of normal "
                          f"floats for {params}")
    return r0, v_min


def potential_curvature(params: PotentialParams) -> float:
    """Second derivative of V at its minimum (force constant).

    V''(r0) = (1/kappa) A^2 [A + 2 alpha(alpha-1)]^2 / (8 b^4 alpha^3 (alpha-1)^3).
    Same validity domain as ``potential_minimum``; raises :class:`DomainError`
    where V'' is not a finite positive float (an overflow or an underflow).
    """
    coef = _minimum_coefficient(params, "curvature at the minimum is undefined")
    try:  # a float ** raises OverflowError where * gives inf
        num = params.A * params.A * (params.A + 2.0 * coef) ** 2
        den = 8.0 * params.b**4 * coef**3
    except OverflowError:  # inf / inf: no float holds the curvature
        num = den = math.inf
    curvature = _over_b_squared(num, params.kappa * den, params)
    if not 0.0 < curvature < math.inf:  # nan fails too
        raise DomainError(f"curvature at the minimum is not a finite positive float for {params}")
    return curvature


def effective_potential(params: PotentialParams, state: QuantumState, r,
                        mode: CentrifugalMode = CentrifugalMode.EXACT):
    """Effective radial potential: V(r) plus the centrifugal barrier.

    The barrier is (1/kappa) [(D+2l-2)^2 - 1]/4 * C(r) with C(r) = 1/r^2
    (EXACT) or its short-range stand-in C(r) = (1/b^2) exp(-r/b)/(1-exp(-r/b))^2
    (APPROXIMATED), which makes the l != 0 equation solvable in closed form.
    """
    radius = _as_positive_radius(r)
    screening = _screening(params, radius)
    barrier = _barrier(params, state.q, mode, radius * radius, *screening)
    return _maybe_scalar(_potential(params, *screening) + barrier / params.kappa, r)
