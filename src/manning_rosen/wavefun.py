"""Normalized radial wavefunctions and D-dimensional angular factors.

The bound radial solution, in s = r/b with z = exp(-s) in (0, 1), is

    g = N z^eps (1 - z)^(1 + eta) P_n^(2 eps, 2 eta + 1)(1 - 2z),

vanishing at r = 0 (z = 1) and r -> infinity (z = 0), with
int_0^inf |g(r)|^2 dr = 1.  P_n is taken at 1 + x = 2 (1 - z), exact in s.

The normalization constant N = 1/sqrt(s(n)) is evaluated two independent
ways: a closed-form one-term Jacobi moment identity (gamma-function ratios
in log space; eps can run well past 25, where naive Gamma arithmetic
overflows) and exp-sinh quadrature of the norm integral (Takahasi & Mori,
Publ. RIMS 9 (1974) 721).

The arrays that depend on no state, the node-count scan array and one
table of the nodes and weights of every exp-sinh level end to end, are built
at import and are read-only.  Most norm integrals stop at level 2, so the
integrand is evaluated once on the head of that table, levels 0-2, not once
per level.
"""

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NormalizationError
from .model import (PotentialParams, QuantumState, _as_positive_radius, _geometric,
                    _maybe_scalar)
from .specfun import _jacobi_y, jacobi, ln_gamma, ln_gamma_ratio
from .spectrum import SpectrumEntry, energy

__all__ = [
    "RadialSolution",
    "AngularMultiIndex",
    "radial_wavefunction",
    "normalization_closed_form",
    "normalization_quadrature",
    "angular_factor",
    "total_wavefunction",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# radial part
# ---------------------------------------------------------------------------

def _g_bare(s, eps: float, eta: float, n: int, ln_scale: float = 0.0):
    """Unnormalized g at s = r/b >= 0, zero at s = 0 and s = inf, over e^ln_scale.

    Taken in s, with 1 - z = -expm1(-s) and the envelope in log space, so the
    tail survives where z = exp(-s) underflows, and the Jacobi factor at
    y = 2 (1 - z) keeps its digits near z = 1.
    """
    ss = np.asarray(s, dtype=float)
    one_minus_z = -np.expm1(-ss)
    # ln(1 - z) = -inf at s = 0; eps s overflows far out, where exp(-inf) = 0 is the limit
    with np.errstate(divide="ignore", over="ignore"):
        envelope = np.exp(-eps * ss + (1.0 + eta) * np.log(one_minus_z) - ln_scale)
    return _maybe_scalar(envelope * _jacobi_y(n, 2.0 * eps, 2.0 * eta + 1.0,
                                              2.0 * one_minus_z), s)


@dataclass(frozen=True)
class RadialSolution:
    """Normalized bound radial wavefunction with its metadata."""

    entry: SpectrumEntry
    b: float
    norm_constant: float
    node_count: int

    def _g_of_s(self, s):
        entry = self.entry
        return self.norm_constant * _g_bare(s, entry.epsilon, entry.eta, entry.state.n)

    def g_of_z(self, z):
        """g evaluated at z = exp(-r/b); scalar or array."""
        zs = np.asarray(z, dtype=float)
        if not np.all((zs >= 0.0) & (zs <= 1.0)):  # NaN fails too
            raise DomainError("z = exp(-r/b) must lie in [0, 1]")
        with np.errstate(divide="ignore"):  # s = inf at z = 0
            return self._g_of_s(-np.log(zs))

    def g_of_r(self, r):
        """g evaluated at radius r > 0; scalar or array."""
        return self._g_of_s(_as_positive_radius(r) / self.b)

    def decay_cutoff(self) -> float:
        """Radius past which |g| has dropped below ~1e-12 of its peak."""
        eps = self.entry.epsilon
        z_peak = eps / (eps + 1.0 + self.entry.eta)
        return -self.b * math.log(z_peak) + self.b * (12.0 * math.log(10.0) + 5.0) / eps

    def sample(self, n_samples: int, r_min: float | None = None) -> np.ndarray:
        """Columns (r, z, g, |g|^2) on a geometric radial grid up to ``decay_cutoff()``."""
        if n_samples < 1:
            raise DomainError(f"need at least one sample, got {n_samples}")
        hi = self.decay_cutoff()
        # from 1e-4 b, or from 1e-2 of the cutoff for states tighter than that
        lo = min(1e-4 * self.b, 1e-2 * hi) if r_min is None else r_min
        if not (0.0 < lo < hi):
            raise DomainError(f"bad sampling range [{lo}, {hi}]")
        r = _geometric(lo, hi, n_samples)
        g = self.g_of_r(r)
        return np.column_stack([r, np.exp(-r / self.b), g, g * g])


# sin^2(theta/2) at 4001 theta uniform inside (0, pi), read-only
_NODE_SCAN_OFFSETS = np.sin(0.5 * np.linspace(0.0, math.pi, 4003)[1:-1]) ** 2
_NODE_SCAN_OFFSETS.setflags(write=False)


def _count_nodes(eps: float, eta: float, n: int) -> int:
    """Interior sign changes of g, counted on its Jacobi factor.

    The envelope z^eps (1-z)^(1+eta) is positive on (0, 1), so g changes sign
    where P_n^(a, b)(x) does, with a = 2 eps and b = 2 eta + 1.  For large a
    its zeros sit within 2 (4n + 2b + 2)/a of x = -1: in the Laguerre limit
    P_n^(a, b)(-1 + 2t/a) -> (-1)^n L_n^(b)(t) (DLMF 18.7(iii)), and the zeros
    of L_n^(b) lie below 4n + 2b + 2.  So the scan covers 0 < y < w in
    y = 1 + x, w = min(2, 4 (4n + 2b + 2)/a), twice that reach, at
    y = w sin^2(theta/2) for 4001 theta uniform in (0, pi); this packs points
    towards both ends of the window, where the zeros cluster.  The array over
    theta depends on nothing else, so it is built once, at import, and
    shared read-only.
    """
    if n == 0:  # P_0 = 1
        return 0
    a, b = 2.0 * eps, 2.0 * eta + 1.0
    width = min(2.0, 4.0 * (4.0 * n + 2.0 * b + 2.0) / a)
    signs = np.sign(_jacobi_y(n, a, b, width * _NODE_SCAN_OFFSETS))
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def radial_wavefunction(params: PotentialParams, state: QuantumState) -> RadialSolution:
    """Normalized radial wavefunction of a bound state.

    Raises :class:`UnboundStateError` when the state is not bound; the
    normalization constant comes from the closed form and the node count
    (it must equal n) from a sign-change scan of the Jacobi factor
    P_n^(a, b)(x), a = 2 eps, b = 2 eta + 1, at 4001 points of the window
    0 < y < min(2, 4 (4n + 2b + 2)/a) in y = 1 + x that holds all its zeros.
    """
    entry = energy(params, state)
    norm = normalization_closed_form(entry, params.b)
    nodes = _count_nodes(entry.epsilon, entry.eta, state.n)
    return RadialSolution(entry=entry, b=params.b, norm_constant=norm, node_count=nodes)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _ln_norm_sum(n: int, eps: float, eta: float) -> float:
    """ln of the exact norm integral int_0^1 z^(2 eps - 1)(1-z)^(2 eta + 2) P_n^2 dz.

    With a = 2 eps, b = 2 eta + 1 and x = 1 - 2z this is 2^-(a+b+1) times
    int_{-1}^{1} (1-x)^(a-1) (1+x)^(b+1) [P_n^(a,b)(x)]^2 dx.  Writing
    1 + x = 2 - (1 - x) splits that into the (1-x)^(a-1) Jacobi moment minus
    the norm h_n (DLMF ch. 18), leaving the single positive term

        Gamma(n+a+1) Gamma(n+b+1) (2n+b+1) / (n! a Gamma(n+a+b+1) (2n+a+b+1)).

    Every factor is positive, so nothing cancels; the two gamma ratios are
    taken in log space by ``ln_gamma_ratio``, which keeps the large-a pair
    ln Gamma(n+a+b+1) - ln Gamma(n+a+1) from cancelling.  The integral may be
    subnormal, so it stays a logarithm.
    """
    a, b = 2.0 * eps, 2.0 * eta + 1.0
    log_ratio = ln_gamma_ratio(n + 1.0, b) - ln_gamma_ratio(n + a + 1.0, b)
    return log_ratio + math.log((2.0 * n + b + 1.0) / (a * (2.0 * n + a + b + 1.0)))


# ln s(n) from the smallest subnormal to the largest double
_LN_S_MIN, _LN_S_MAX = math.log(math.ulp(0.0)), math.log(sys.float_info.max)


def normalization_closed_form(entry: SpectrumEntry, b: float) -> float:
    """Closed-form normalization constant N = 1/sqrt(s(n)), s(n) = b * norm integral.

    N is taken from ln s(n), so it keeps full precision where s(n) is subnormal.
    Raises :class:`NormalizationError` when s(n) is outside the double range.
    """
    if entry.epsilon <= 0.0:
        raise DomainError("normalization requires a bound state (epsilon > 0)")
    if entry.eta < -0.5:
        raise DomainError(f"eta must be >= -1/2, got {entry.eta}")
    if not b > 0.0:
        raise DomainError(f"screening length b must be positive, got {b}")
    ln_s = math.log(b) + _ln_norm_sum(entry.state.n, entry.epsilon, entry.eta)
    if not _LN_S_MIN <= ln_s <= _LN_S_MAX:
        raise NormalizationError(
            f"normalization formula inconsistent: s(n) = exp({ln_s!r}) is outside "
            f"the double range for {entry.state}"
        )
    return math.exp(-0.5 * ln_s)


# exp-sinh rule on u in [_U_MIN, _U_MAX] (t from 2e-19 to 7e6), first step
# _H_FIRST, halved at most _HALVINGS times until two levels agree to _REL_TOL;
# levels below _HEAD_LEVELS are evaluated in one call
_U_MIN, _U_MAX, _H_FIRST, _HALVINGS, _HEAD_LEVELS = -4.0, 3.0, 0.125, 8, 3
_REL_TOL = 1e-10


def _exp_sinh_table() -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
    """Nodes t = exp(pi/2 sinh u) and weights t cosh u of every level end to end.

    Level 0 is u = _U_MIN + h k, k = 0..n_steps, at h = _H_FIRST; level
    m > 0 holds the odd k at h = _H_FIRST / 2^m, the midpoints it adds.
    Each level is computed on its own, then concatenated; returns the
    read-only nodes and weights and each level's slice of them.
    """
    nodes, weights = [], []
    for level in range(_HALVINGS + 1):
        h = _H_FIRST / 2 ** level
        n_steps = round((_U_MAX - _U_MIN) / _H_FIRST) * 2 ** level
        u = _U_MIN + h * (np.arange(1, n_steps, 2) if level else np.arange(n_steps + 1))
        nodes.append(np.exp(0.5 * math.pi * np.sinh(u)))
        weights.append(nodes[-1] * np.cosh(u))
    ends = [0, *itertools.accumulate(map(len, nodes))]
    table = np.concatenate(nodes), np.concatenate(weights)
    for array in table:
        array.setflags(write=False)
    return *table, tuple(map(slice, ends, ends[1:]))


_EXP_SINH_NODES, _EXP_SINH_WEIGHTS, _EXP_SINH_LEVELS = _exp_sinh_table()


def _exp_sinh_integral(fn) -> float:
    """int_0^inf fn(t) dt by the exp-sinh trapezoid rule t = exp(pi/2 sinh u).

    The substitution gives the integrand double-exponential decay in u at
    both ends, where the trapezoid rule converges exponentially fast as h
    falls (Takahasi & Mori 1974; DLMF 3.5).  Each halving of h adds only the
    midpoints; stops when two levels agree to ``_REL_TOL``.  The nodes and
    weights of each level do not depend on ``fn``: they are slices of the
    table built at import and are passed to ``fn`` read-only.  Most norm
    integrals stop at level 1 or 2, so ``fn`` is called once on the 225
    nodes of levels 0-2, the head of the table, and each of those levels
    sums its own slice, in the same order with the same weights; levels 3
    and up are evaluated one at a time.
    """
    head_values = fn(_EXP_SINH_NODES[:_EXP_SINH_LEVELS[_HEAD_LEVELS - 1].stop])

    def node_sum(level):
        part = _EXP_SINH_LEVELS[level]
        values = head_values[part] if level < _HEAD_LEVELS else fn(_EXP_SINH_NODES[part])
        return 0.5 * math.pi * float(np.dot(values, _EXP_SINH_WEIGHTS[part]))

    h = _H_FIRST
    total = node_sum(0)
    estimates = [h * total]
    for level in range(1, _HALVINGS + 1):
        h *= 0.5
        total += node_sum(level)
        estimates.append(h * total)
        if abs(estimates[-1] - estimates[-2]) <= _REL_TOL * abs(estimates[-1]):
            return estimates[-1]
    raise ConvergenceError(f"norm integral did not converge to {_REL_TOL:g} by step {h:g}",
                           estimates=tuple(estimates[-2:]))


# ln of the envelope peak below which the norm quadrature divides the peak out.
# Above it g^2 near the peak stays above e^-600, well inside the normal range,
# and the nodes are summed unscaled, so no rounding is added there.
_LN_PEAK_MIN = -300.0


def _norm_integral_quadrature(n: int, eps: float, eta: float) -> tuple[float, float]:
    """Norm integral int_0^inf g_bare(s)^2 ds = j e^(2c) by exp-sinh quadrature in t = eps s.

    Returns (j, c).  c is 0, or, where the envelope z^eps (1 - z)^(1 + eta)
    peaks below e^-300, ln of that peak (at z = eps / (eps + 1 + eta)): the
    nodes are summed over e^(2c), so j stays normal where the integral itself
    is subnormal or below the double range.  Shares the radial kernel, but no
    algebra, with the closed form.
    """
    ln_peak = -eps * math.log1p((1.0 + eta) / eps) - (1.0 + eta) * math.log1p(eps / (1.0 + eta))
    c = ln_peak if ln_peak < _LN_PEAK_MIN else 0.0
    return _exp_sinh_integral(lambda t: _g_bare(t / eps, eps, eta, n, c) ** 2) / eps, c


def normalization_quadrature(params: PotentialParams, entry: SpectrumEntry) -> float:
    """Normalization constant from numerical quadrature, N = 1/sqrt(b * I).

    Independent of the closed form: an exp-sinh trapezoid rule whose step
    is halved from 1/8 until two levels agree to 1e-10 relative.  The integral
    is carried as j e^(2c), so N keeps full precision where b * I is
    subnormal.  Raises :class:`ConvergenceError`, with the last two estimates
    when the levels never agree, and when b * I lies outside the double range.
    """
    if entry.epsilon <= 0.0:
        raise DomainError("normalization requires a bound state (epsilon > 0)")
    j, c = _norm_integral_quadrature(entry.state.n, entry.epsilon, entry.eta)
    ln_s = math.log(params.b) + math.log(j) + 2.0 * c if 0.0 < j < math.inf else math.nan
    if not _LN_S_MIN <= ln_s <= _LN_S_MAX:
        raise ConvergenceError(f"norm integral is {j * math.exp(2.0 * c)!r}: b times it "
                               f"lies outside the double range")
    return math.exp(-c) / math.sqrt(params.b * j)


# ---------------------------------------------------------------------------
# angular part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularMultiIndex:
    """Hierarchical angular momenta (l_1, ..., l_{D-1}) with l_{D-1} = l.

    l_1 is the azimuthal quantum number and may carry a sign (phase
    direction); the hierarchy |l_1| <= l_2 <= ... <= l_{D-1} must hold.
    """

    l_values: tuple[int, ...]

    def __post_init__(self):
        if len(self.l_values) < 1:
            raise DomainError("need at least one angular quantum number")
        if any(int(v) != v for v in self.l_values):
            raise DomainError("angular quantum numbers must be integers")
        levels = [abs(self.l_values[0]), *self.l_values[1:]]
        if any(lo > hi for lo, hi in zip(levels, levels[1:])):
            raise DomainError(
                f"angular hierarchy violated: need |l_1| <= l_2 <= ... ; got {self.l_values}"
            )

    @property
    def D(self) -> int:
        return len(self.l_values) + 1

    @property
    def l(self) -> int:
        """Total orbital quantum number (|m| in two dimensions)."""
        return abs(self.l_values[0]) if self.D == 2 else self.l_values[-1]

    def level(self, k: int) -> int:
        """l_k for 1 <= k <= D-1, with the azimuthal entry taken as |l_1|."""
        if not 1 <= k <= self.D - 1:
            raise DomainError(f"level index {k} outside 1..{self.D - 1}")
        return abs(self.l_values[0]) if k == 1 else self.l_values[k - 1]


def _polar_norm_constant(n_j: int, lam: float) -> float:
    """N with int_0^pi [N sin^m(th) P_{n_j}^(lam,lam)(cos th)]^2 sin^(j-1)(th) dth = 1.

    Reduces to N^2 h = 1 with the Jacobi norm (DLMF 18.3.1)

        h = int_{-1}^{1} (1 - x^2)^lam P^2 dx
          = 2^(2 lam + 1) Gamma(n + lam + 1)^2 / ((2n + 2 lam + 1) n! Gamma(n + 2 lam + 1)),

    taken in log space.
    """
    log_h = ((2.0 * lam + 1.0) * math.log(2.0) + 2.0 * ln_gamma(n_j + lam + 1.0)
             - math.log(2.0 * n_j + 2.0 * lam + 1.0) - ln_gamma(n_j + 1.0)
             - ln_gamma(n_j + 2.0 * lam + 1.0))
    return math.exp(-0.5 * log_h)


def angular_factor(j: int, multi_index: AngularMultiIndex, theta: float):
    """Single-axis angular factor H(theta_j) of the separable solution.

    j = 1 is the azimuthal phase exp(i l_1 theta)/sqrt(2 pi) (complex,
    periodic); for j >= 2 the factor is

        N (sin theta)^(l_{j-1}) P_{n_j}^(lam, lam)(cos theta),

    with n_j = l_j - l_{j-1} and lam = l_{j-1} + (j - 2)/2, normalized so
    that int_0^pi |H|^2 (sin theta)^(j-1) d theta = 1.
    """
    d = multi_index.D
    if not 1 <= j <= d - 1:
        raise DomainError(f"axis index {j} outside 1..{d - 1}")
    if j == 1:
        return cmath.exp(1j * multi_index.l_values[0] * theta) / math.sqrt(_TWO_PI)
    l_prev = multi_index.level(j - 1)
    l_cur = multi_index.level(j)
    n_j = l_cur - l_prev
    lam = l_prev + 0.5 * (j - 2)
    norm = _polar_norm_constant(n_j, lam)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return norm * sin_t ** l_prev * jacobi(n_j, lam, lam, cos_t)


def total_wavefunction(params: PotentialParams, state: QuantumState,
                       multi_index: AngularMultiIndex, point,
                       radial: RadialSolution | None = None) -> complex:
    """Full normalized wavefunction at (r, theta_1, ..., theta_{D-1}).

    psi = r^(-(D-1)/2) g(r) * prod_j H(theta_j); with this radial power the
    norm over the full volume element r^(D-1) dr dOmega is exactly the
    product of the unit 1-D norms.  Pass a prebuilt ``radial`` solution to
    avoid recomputing the normalization per point.
    """
    if multi_index.D != state.D:
        raise DomainError(
            f"multi-index dimension {multi_index.D} != state dimension {state.D}"
        )
    if multi_index.l != state.l:
        raise DomainError(f"multi-index l = {multi_index.l} != state l = {state.l}")
    if len(point) != state.D:
        raise DomainError(f"need (r, theta_1..theta_{state.D - 1}), got {len(point)} values")
    r = float(point[0])
    if not r > 0.0:  # NaN fails too
        raise DomainError("r must be positive")
    if radial is None:
        radial = radial_wavefunction(params, state)
    value = complex(r ** (-(state.D - 1) / 2.0) * radial.g_of_r(r))
    value *= angular_factor(1, multi_index, float(point[1]))
    for j in range(2, state.D):
        value *= angular_factor(j, multi_index, float(point[j]))
    return value
