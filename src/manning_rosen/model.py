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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoMinimumError

__all__ = [
    "CentrifugalMode",
    "PotentialParams",
    "QuantumState",
    "potential_value",
    "potential_value_rational",
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


def _screening_ratio(x):
    """w = exp(-x)/(1 - exp(-x)), stable down to x ~ 1e-12 via expm1."""
    return np.exp(-x) / (-np.expm1(-x))


def _as_positive_radius(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("r must be positive; the potential is undefined at r <= 0")
    return arr


def _maybe_scalar(value, template):
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(value)
    return value


def potential_value(params: PotentialParams, r):
    """Potential energy V(r) in the units set by ``params``.

    V(r) = -(1/(kappa b^2)) [A w - alpha(alpha-1) w^2] with
    w = exp(-r/b)/(1-exp(-r/b)).
    """
    x = _as_positive_radius(r) / params.b
    w = _screening_ratio(x)
    scale = 1.0 / (params.kappa * params.b * params.b)
    value = -scale * (params.A * w - params.alpha_product * w * w)
    return _maybe_scalar(value, r)


def potential_value_rational(params: PotentialParams, r):
    """Same potential in its single-fraction form.

    V(r) = -(1/(kappa b^2)) (C u + D u^2)/(1-u)^2 with u = exp(-r/b),
    C = A and D = -A - alpha(alpha-1).  The numerator is evaluated in the
    rearrangement u [A(1-u) - alpha(alpha-1)u]; the printed C u + D u^2
    grouping cancels catastrophically at small r when A dominates.
    Exposed so the equivalence of the two published forms can be checked.
    """
    x = _as_positive_radius(r) / params.b
    u = np.exp(-x)
    one_minus = -np.expm1(-x)
    numerator = u * (params.A * one_minus - params.alpha_product * u)
    scale = 1.0 / (params.kappa * params.b * params.b)
    value = -scale * numerator / (one_minus * one_minus)
    return _maybe_scalar(value, r)


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
    potential is monotone and has no interior minimum.
    """
    coef = _minimum_coefficient(params, "no interior minimum in validated regime")
    r0 = params.b * math.log1p(2.0 * coef / params.A)
    v_min = -params.A * params.A / (4.0 * params.kappa * params.b * params.b * coef)
    return r0, v_min


def potential_curvature(params: PotentialParams) -> float:
    """Second derivative of V at its minimum (force constant).

    V''(r0) = (1/kappa) A^2 [A + 2 alpha(alpha-1)]^2 / (8 b^4 alpha^3 (alpha-1)^3).
    Same validity domain as ``potential_minimum``.
    """
    coef = _minimum_coefficient(params, "curvature at the minimum is undefined")
    num = params.A * params.A * (params.A + 2.0 * coef) ** 2
    den = 8.0 * params.b**4 * coef**3
    return num / (params.kappa * den)


def effective_potential(params: PotentialParams, state: QuantumState, r,
                        mode: CentrifugalMode = CentrifugalMode.EXACT):
    """Effective radial potential: V(r) plus the centrifugal barrier.

    The barrier is (1/kappa) [(D+2l-2)^2 - 1]/4 * C(r) with C(r) = 1/r^2
    (EXACT) or its short-range stand-in C(r) = (1/b^2) exp(-r/b)/(1-exp(-r/b))^2
    (APPROXIMATED), which makes the l != 0 equation solvable in closed form.
    """
    radius = _as_positive_radius(r)
    prefactor = (state.q * state.q - 1.0) / 4.0
    if mode is CentrifugalMode.EXACT:
        barrier = prefactor / (radius * radius)
    elif mode is CentrifugalMode.APPROXIMATED:
        x = radius / params.b
        inv_b2 = 1.0 / (params.b * params.b)
        barrier = prefactor * inv_b2 * np.exp(-x) / np.expm1(-x) ** 2
    else:
        raise DomainError(f"unknown centrifugal mode: {mode!r}")
    return _maybe_scalar(potential_value(params, radius) + barrier / params.kappa, r)
