"""Manning-Rosen potential and the effective radial potential in D dimensions.

The potential, in energy units,

    V(r) = -(hbar^2 / (2 mu b^2)) * [A w(r) - alpha(alpha-1) w(r)^2],
    w(r) = exp(-r/b) / (1 - exp(-r/b)),

depends on the dimensionless coupling A, the dimensionless shape parameter
alpha, and the screening length b (potential range 1/b).  It is invariant
under alpha -> 1 - alpha.  The default unit system is atomic units
(hbar = mu = 1).

All functions are pure and accept scalar or array ``r``.  ``_normal`` judges every scale
built from kappa and b: kappa, 1/(kappa b^2), the stand-in's 1/b^2, V(r0) and V''(r0).
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

_NORMAL_MIN = sys.float_info.min


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
        _normal(self.kappa, self, "kappa = 2 mu / hbar^2")

    @property
    def kappa(self) -> float:
        return _divide(2.0 * self.mu, self.hbar * self.hbar)

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
        return _combined_index(self.D, self.l)


def _combined_index(D: int, l: int) -> int:
    """q = D + 2l - 2 of ``QuantumState.q``, without building or checking a state."""
    return D + 2 * l - 2


def _as_positive_radius(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(arr > 0.0):  # NaN fails too
        raise DomainError("r must be positive; the potential is undefined at r <= 0")
    return arr


def _geometric(lo: float, hi: float, num: int) -> np.ndarray:
    """np.geomspace(lo, hi, num) for lo, hi > 0 and num >= 1, bit for bit.

    The same arithmetic, 10 ** linspace(log10 lo, log10 hi, num) with the
    ends pinned to lo and hi, without the argument handling of geomspace and
    linspace, which costs more than the arithmetic on the grids used here.
    The exponents are linspace's: k * step + log10 lo, step = the span over
    num - 1 (a step that rounds to 0 only where the span is 0, when linspace's
    other branch gives the same log10 lo).
    """
    start = np.log10(lo)
    exponents = np.arange(num, dtype=float)
    if num > 1:
        exponents *= (np.log10(hi) - start) / (num - 1)
    exponents += start
    points = np.power(10.0, exponents)
    points[0] = lo
    if num > 1:
        points[-1] = hi
    return points


def _finite_at(values, r, params: PotentialParams, subject: str):
    """``values`` at the radii ``r``, or :class:`DomainError` at the first one not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"{subject} is not a finite float at r={float(r[bad][0])} for {params}")
    return values


def _maybe_scalar(value, template):
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return float(value)
    return value


def _normal(value: float, source: object, subject: str, of: object = "") -> float:
    """``value``, or :class:`DomainError` where it is not a normal float.

    The one float-range judge, kappa and b scales included; the message is built only on failure.
    """
    if _NORMAL_MIN <= abs(value) < math.inf:  # nan fails too
        return value
    fault = ("rounds to 0" if value == 0.0 else "is subnormal" if math.isfinite(value)
             else "is not a finite float")
    name = subject if of == "" else f"{subject} {of}"
    raise DomainError(f"{name} {fault} for {source}")


def _divide(num: float, den: float) -> float:
    """num / den, with IEEE 754's inf (nan for 0/0) where a float / by 0 raises."""
    return num / den if den else num * math.copysign(math.inf, den)


def _finite(value: float, source: object, subject: str, of: object = "") -> float:
    """``value`` where it is finite, 0 and subnormals included; else ``_normal``'s DomainError."""
    return value if math.isfinite(value) else _normal(value, source, subject, of)


def _power(base: float, exponent: int) -> float:
    """base ** exponent for an integer exponent, with IEEE 754's inf where a float ** overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.copysign(math.inf, base) ** exponent


def _screening(params: PotentialParams, radius):
    """exp(-x) and expm1(-x) at x = r/b, the two terms that V and the stand-in are built from."""
    x = -(radius / params.b)
    return np.exp(x), np.expm1(x)


def _potential(params: PotentialParams, decay, decay_m1, kappa: float):
    """V at ``kappa`` from ``_screening``'s pair; the oracle's kappa = 1 gives kappa V."""
    w = decay / -decay_m1  # stable down to x ~ 1e-12
    scale = _normal(_divide(1.0, kappa * params.b * params.b), params, "1/(kappa b^2)")
    return -scale * (params.A * w - params.alpha_product * w * w)


def _barrier(params: PotentialParams, q: int, mode: CentrifugalMode,
             radius_squared, decay, decay_m1):
    """kappa times the centrifugal barrier, (q^2 - 1)/4 C(r), from r^2 and ``_screening``'s pair."""
    prefactor = (q * q - 1.0) / 4.0
    if mode is CentrifugalMode.EXACT:
        return prefactor / radius_squared
    if mode is CentrifugalMode.APPROXIMATED:
        inv_b2 = _normal(_divide(1.0, params.b * params.b), params, "1/b^2")
        return prefactor * inv_b2 * decay / decay_m1 ** 2
    raise DomainError(f"unknown centrifugal mode: {mode!r}")


def potential_value(params: PotentialParams, r):
    """Potential energy V(r) in the units set by ``params``.

    V(r) = -(1/(kappa b^2)) [A w - alpha(alpha-1) w^2] with
    w = exp(-r/b)/(1-exp(-r/b)); :class:`DomainError` names the first r where V is not finite.
    """
    radius = _as_positive_radius(r)
    with np.errstate(all="ignore"):  # an inf or a NaN fails the check below
        value = _potential(params, *_screening(params, radius), params.kappa)
    return _maybe_scalar(_finite_at(value, radius, params, "V"), r)


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
    v_min = _divide(-params.A * params.A, 4.0 * params.kappa * params.b * params.b * coef)
    return _normal(r0, params, "r0"), _normal(v_min, params, "V(r0)")


def potential_curvature(params: PotentialParams) -> float:
    """Second derivative of V at its minimum (force constant).

    V''(r0) = (1/kappa) A^2 [A + 2 alpha(alpha-1)]^2 / (8 b^4 alpha^3 (alpha-1)^3).
    Same validity domain as ``potential_minimum``; raises :class:`DomainError`
    where V'' is not a normal float (an overflow or an underflow).
    """
    coef = _minimum_coefficient(params, "curvature at the minimum is undefined")
    num = params.A * params.A * _power(params.A + 2.0 * coef, 2)
    den = 8.0 * _power(params.b, 4) * _power(coef, 3)
    return _normal(_divide(num, params.kappa * den), params, "V''(r0)")


def effective_potential(params: PotentialParams, state: QuantumState, r,
                        mode: CentrifugalMode = CentrifugalMode.EXACT):
    """Effective radial potential: V(r) plus the centrifugal barrier.

    The barrier is (1/kappa) [(D+2l-2)^2 - 1]/4 * C(r) with C(r) = 1/r^2
    (EXACT) or its short-range stand-in C(r) = (1/b^2) exp(-r/b)/(1-exp(-r/b))^2
    (APPROXIMATED), which makes the l != 0 equation solvable in closed form.
    :class:`DomainError` names the first r where V_eff is not a finite float.
    """
    radius = _as_positive_radius(r)
    with np.errstate(all="ignore"):  # an inf or a NaN fails the check below
        screening = _screening(params, radius)
        barrier = _barrier(params, state.q, mode, radius * radius, *screening)
        value = _potential(params, *screening, params.kappa) + barrier / params.kappa
    return _maybe_scalar(_finite_at(value, radius, params, "V_eff"), r)
