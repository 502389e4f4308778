"""Independent finite-difference eigensolver for the radial equation.

Solves  g'' + kappa [E - V_eff(r)] g = 0  as a symmetric tridiagonal
eigenproblem whose eigenvalues are kappa E; the bound levels are the
negative ones.  Every returned value is an eigenvalue of the assembled
matrix, bisected to full accuracy by LAPACK's stebz, so this path shares no
algebra with the closed-form spectrum and serves as its ground truth, in
either centrifugal mode.  The closed form only sizes the default grid and
says where to look: it seeds each level, directly or through the other
mode's solve on the same grid.

The grid is uniform in x = ln r (Langer's substitution r = e^x,
g = r^(1/2) u).  There the equation reads

    -u'' + [1/4 + kappa r^2 V_eff] u = kappa E r^2 u,

and the r^((q+1)/2) behaviour of g at the origin becomes the smooth
exponential u ~ e^(nu x), nu^2 = 1/4 + lim r^2 kappa V_eff.  The 3-point
second difference in x, symmetrised by w = r u, gives diagonal
(T_ii + 1/4)/r_i^2 + kappa V_eff(r_i) and off-diagonal -1/(h^2 r_i r_(i+1)).
The left end is a Robin condition: the ghost node below the first unknown
holds e^(-nu h) times it, with nu read off the assembled potential at that
node; the right end is Dirichlet.  In s = r / b the equation holds no b, so
LAPACK solves the matrix at that unit size (``_bound_levels``) for any b.
It is strongly graded (entries near 1e29 at the origin), so bisection runs
to a tolerance of a few times the smallest normal number: at LAPACK's
default, scaled by the largest entry, the eigenvalues come out wrong by 1e9
or more.

A default grid (``default_grid``) keeps one spacing h for every channel but
starts where the channel's states begin; an explicit grid is used as given.
A default solve runs on the two grids that ``_grid_pair`` makes from it.

Every level is seeded near its eigenvalue and certified (``_bound_levels``):
inverse iteration from the seed (Parlett, The Symmetric Eigenvalue Problem)
gives the eigenvector and a shift, one stebz call bisects a short window
around the shift to the value, and the level is kept only where that value
and the vector's sign changes are those of level n (the discrete Sturm
oscillation theorem).  Where the matrix discretises the closed form's own
equation (approximated mode, or q^2 = 1, where both barriers vanish),
closed-form level n, kappa E_n = -(eps_n / b)^2 of each level that
``spectrum.bound_states`` lists, lies within O(h^2) of the n-th eigenvalue
and seeds it; where that raises :class:`DomainError`, nothing seeds.
Otherwise, in exact mode, the two modes' matrices on one grid differ only on
the diagonal, by dD = diag_exact - diag_approx, so the approximated
eigenpairs (lambda_n, w_n) seed it to first order:
sigma_n = lambda_n + w_n^T dD w_n / w_n^T w_n, with inverse iteration
started from w_n.  ``_solve_modes`` says which approximated solve on the
same grid they come from.  Seeding stops at a seed at or above 0, where one
stebz count certifies that no other level lies below 0, and the bound
subset is returned as truncated.  From a level that fails its certificate
on, or where the count finds a level (as in channels with no closed form,
q = 0 with |1 - 2 alpha| < 1), stebz's index range seeds the levels
instead.  The kinetic part is positive (a second difference with a Robin
ratio <= 1 at one end and Dirichlet at the other, plus 1/(4 r^2)), so no
eigenvalue lies below kappa min V_eff: when that is >= 0, nothing is
solved.

The leading discretization error is O(h^2): the stencil reads
-u'' - (h^2/12) u^(4) + O(h^4), so to first order
lambda_h = lambda - (h^2/12) int (u'')^2 dx / int r^2 u^2 dx.  That error
is removed by a deferred correction from the eigenvector already in hand:
u'' comes from the equation itself, and the integration by parts leaves no
boundary term, because u ~ e^(nu x) as x -> -inf and u = 0 at r_max.  It
costs O(N) per level and leaves an O(h^4) error in the corrected level R.
On an explicit grid that R is the refined level.  A default solve removes
the h^4 term too, by Richardson extrapolation over its two grids:
E = (16 R_fine - R_coarse) / 15, which converges at order 6 (Pryce,
Numerical Solution of Sturm-Liouville Problems, 1993; Paine, de Hoog &
Anderssen, Computing 26 (1981) 123).  The coarse solve costs far less than
a second one: its arrays are sliced from the fine grid's, and each coarse
level is seeded from its certified fine eigenpair at 4 lambda - 3 R, with
the fine eigenvector at the shared nodes as the start of inverse
iteration, and certified as every level is (``_two_grid``).
e_n = |E_n - R_fine,n| / |E_n| estimates the fine grid's own error, which
E_n's lies well below; above 2e-6 it warns (``solve_radial``).

``solve_radial`` and a channel audit (``audit_channel``) solve through
``_solve_modes``, which assembles what the two modes' matrices share once
per grid (``_channel_parts``: the nodes, V, the kinetic diagonal and the
off-diagonal), so each mode adds only its barrier and Robin entry.  For
q^2 > 1 the exact barrier lies above its stand-in (Greene & Aldrich, PRA 14
(1976) 2363), 1/(4 b^2 sinh^2(r/2b)) <= 1/r^2, and can unbind a level
that the stand-in holds on the same grid.  That level reads None: both
solves share every discretization choice, so its absence is physics, not a
solver failure.  With no approximated solve to tell the two apart, a
missing exact level raises.

LAPACK's gtsv and stebz come straight from SciPy's ``_flapack`` extension,
loaded from its file (``_lapack``): importing this module does not run
``scipy.linalg``'s package init, which takes longer than a table group of
oracle solves.
"""

import dataclasses
import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ConvergenceError, DomainError
from .model import (CentrifugalMode, PotentialParams, QuantumState, _barrier, _geometric,
                    _potential, _screening)
from .spectrum import bound_states, shape_parameter
from .spectrum import energy as _closed_energy


def _lapack():
    """LAPACK's dgtsv and dstebz from SciPy's ``_flapack`` extension.

    The extension is loaded from its file in ``scipy/linalg``, which skips
    ``scipy.linalg``'s package init and the array-API layer that it imports
    (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``, ``numpy.random``).
    These are the routines ``scipy.linalg.lapack`` exports, so a later
    ``import scipy.linalg`` holds the same ones.  An install with no
    ``_flapack`` file there (an editable build, a renamed module) takes them
    from ``scipy.linalg.lapack``.
    """
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        from scipy.linalg.lapack import dgtsv, dstebz
        return dgtsv, dstebz
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dgtsv, flapack.dstebz


dgtsv, dstebz = _lapack()

__all__ = [
    "LogRadialGrid",
    "OracleResult",
    "AuditResult",
    "default_grid",
    "solve_radial",
    "audit_channel",
    "approximation_audit",
]

# Points of a default grid that starts at the grid origin; its spacing is every
# default grid's spacing.
_LOG_GRID_POINTS = 4001
# A default grid starts where the state's weight below r, about (r/b)^(2 nu + 1),
# reaches 10^-_ORIGIN_WEIGHT_EXPONENT, but at least _ORIGIN_FLOOR and at most
# _ORIGIN_CAP times min(b, r_max).
_ORIGIN_WEIGHT_EXPONENT = 18.0
_ORIGIN_FLOOR = 1e-12
_ORIGIN_CAP = 1e-3
# Bisection tolerance: the graded log-grid matrix needs full relative accuracy.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny
# Shifted solves per level at most on the seeded path, and the relative
# half-width below which its certifying bisection window is not narrowed.
_SEED_SOLVES = 3
_SEED_WINDOW = 1e-12
_ULP = float(np.finfo(float).eps)  # the spacing of floats at 1, 2^-52
# Relative margin that keeps rounding in V_eff from lifting the spectrum's lower bound.
_LOWER_MARGIN = 1e-9
# Eigenvector components at or below this fraction of the largest are inverse
# iteration's noise floor, which the 1/(4r) in u'' would lift by ~1e11.
_NOISE_FLOOR = 1e-12
# Relative move of a level under refinement above which an explicit grid is too coarse.
_MAX_REFINEMENT_GAP = 1e-3
# Default spacings per step of a default solve's coarse grid; its fine grid takes half.
_COARSE_STEPS = 6
# Two-grid error estimate e_n = |E_n - R_n| / |E_n| above which a default solve warns
# (``solve_radial``): about the largest e_n that leaves E_n within 1e-8.
_MAX_TWO_GRID_ERROR = 2e-6
# Largest pivot floor of stebz, relative to the shallowest level, that still resolves it.
_MAX_PIVOT_FLOOR = 1e-8
# Natural logs of the largest and the smallest normal float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)

_LOG = logging.getLogger(__name__)
# The library convention, set here because only the oracle logs: the
# closed-form commands then never import logging.
logging.getLogger(__package__).addHandler(logging.NullHandler())


@dataclass(frozen=True)
class LogRadialGrid:
    """Grid uniform in x = ln r: a Robin ghost node at r_min, Dirichlet at r_max.

    The unknowns sit on the interior points; ``spacing`` is the step h in x.
    The matrix divides by r^2 at every node and holds (2/h^2 + 1/4)/r_min^2
    at the first, so r_max^2 and that entry must be finite normal floats.
    """

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise DomainError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_points < 3:
            raise DomainError(f"need at least 3 grid points, got {self.n_points}")
        h = self.spacing
        log_kinetic = math.log(2.0 / (h * h) + 0.25) - 2.0 * math.log(self.r_min)
        if not (2.0 * math.log(self.r_max) < _LOG_FLOAT_MAX
                and _LOG_FLOAT_MIN < log_kinetic < _LOG_FLOAT_MAX):
            raise DomainError(
                f"grid [{self.r_min}, {self.r_max}] with {self.n_points} points is out of "
                f"float range: r_max^2 and (2/h^2 + 1/4)/r_min^2 must be finite normal floats")

    @property
    def spacing(self) -> float:
        return math.log(self.r_max / self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return _geometric(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues of the discretized radial problem."""

    eigenvalues: tuple[float, ...]
    node_counts: tuple[int, ...]
    grid: LogRadialGrid
    mode: CentrifugalMode
    refined: tuple[float, ...]  # eigenvalues with the deferred correction added
    truncated: bool = False
    warnings: tuple[str, ...] = ()

    def best(self, index: int) -> float:
        """Refined energy of level ``index``; :class:`ConvergenceError` if there is none."""
        if index >= len(self.refined):
            raise ConvergenceError(
                f"oracle found only {len(self.refined)} bound levels in {self.mode.value} "
                f"mode, so no level n = {index}; grid {self.grid}")
        return self.refined[index]


def _grid_origin(b: float, r_max: float) -> float:
    """1e-12 min(b, r_max), the inner end of every grid not given an r_min.

    The min keeps r_min below the state when b is large: at fixed A/b the
    state's extent b/eps stops growing with b, and r_max falls below b.
    """
    return _ORIGIN_FLOOR * min(b, r_max)


def default_grid(params: PotentialParams, D: int, l: int, k: int = 1) -> LogRadialGrid:
    """Log-mapped grid sized from the closed-form decay and origin behaviour of the channel.

    The wavefunction of a state with energy parameter eps decays like
    exp(-eps r / b), so r_max = b (35 + 5 n_top) / eps_min keeps the
    truncated tail below ~1e-15; n_top is the highest of the first k levels
    that ``bound_states`` finds bound, and eps_min = 1 when none is.

    The grid is uniform in x = ln r with spacing h = ln(r_max / r_0) / 4000,
    the spacing of 4001 points from the ``_grid_origin`` r_0 of explicit
    grids; ``_grid_pair`` makes a default solve's two grids from it.  Near
    the origin every state of the channel goes like u ~ e^(nu x),
    nu^2 = q^2/4 + alpha(alpha - 1) in either centrifugal mode, so its
    weight below r is about (r / b)^(2 nu + 1).  The grid
    starts a whole number of steps above r_0, at the node nearest
    min(b, r_max) 10^(-18 / (2 nu + 1)), clamped to [1e-12, 1e-3] of
    min(b, r_max), and the Robin ghost node there carries the e^(nu x)
    behaviour.  The point count falls with the span, to roughly a third of
    4001 where the start reaches its cap, and every channel keeps the same
    h; channels with nu -> 0 (q = 0 at alpha = 0 or 1, and eta -> -1/2) keep
    r_0 and 4001 points.
    """
    entries = bound_states(params, D, l, n_max=max(k, 1) - 1)
    n_top, eps_min = (entries[-1].state.n, entries[-1].epsilon) if entries else (0, 1.0)
    r_max = params.b * (35.0 + 5.0 * n_top) / eps_min
    floor = _grid_origin(params.b, r_max)
    h = math.log(r_max / floor) / (_LOG_GRID_POINTS - 1)
    nu = 0.5 * shape_parameter(params, QuantumState(n=0, l=l, D=D))
    onset = 10.0 ** (-_ORIGIN_WEIGHT_EXPONENT / (2.0 * nu + 1.0))
    start = min(params.b, r_max) * min(max(onset, _ORIGIN_FLOOR), _ORIGIN_CAP)
    steps = round(math.log(start / floor) / h)
    return LogRadialGrid(r_min=floor * math.exp(steps * h), r_max=r_max,
                         n_points=_LOG_GRID_POINTS - steps)


@dataclass(frozen=True)
class _ChannelParts:
    """What both centrifugal modes' matrices share on ``grid`` (``_channel_parts``)."""

    grid: LogRadialGrid
    r: np.ndarray  # the interior nodes
    r_squared: np.ndarray
    screening: tuple[np.ndarray, np.ndarray]  # exp(-r/b), expm1(-r/b)
    potential: np.ndarray  # kappa V, as V at unit kappa
    kinetic: np.ndarray  # (2/h^2 + 1/4)/r^2, the kinetic diagonal but at the Robin end
    off: np.ndarray


def _with_kinetic(grid: LogRadialGrid, r: np.ndarray, r_squared: np.ndarray,
                  screening: tuple[np.ndarray, np.ndarray], potential: np.ndarray) -> _ChannelParts:
    """``_ChannelParts`` on ``grid`` from the node arrays, adding the two that hold its spacing."""
    h = grid.spacing
    return _ChannelParts(grid=grid, r=r, r_squared=r_squared, screening=screening,
                         potential=potential, kinetic=(2.0 / (h * h) + 0.25) / r_squared,
                         off=-1.0 / (h * h * r[:-1] * r[1:]))


def _channel_parts(params: PotentialParams, grid: LogRadialGrid) -> _ChannelParts:
    """The mode-independent arrays of ``_tridiagonal`` on ``grid``, computed once."""
    r = grid.points()[1:-1]
    unit_kappa = dataclasses.replace(params, mu=0.5, hbar=1.0)
    screening = _screening(unit_kappa, r)
    return _with_kinetic(grid, r, r * r, screening, _potential(unit_kappa, *screening))


def _coarse_parts(parts: _ChannelParts, coarse: LogRadialGrid) -> _ChannelParts:
    """``_channel_parts`` on ``coarse``, whose nodes are every other node of the fine grid's.

    The coarse interior nodes are the fine grid's odd interior nodes, so the
    nodes, r^2, the screening pair and V are sliced out of the fine ``parts``;
    only the kinetic diagonal and the off-diagonal are built anew.
    """
    return _with_kinetic(coarse, parts.r[1::2], parts.r_squared[1::2],
                         (parts.screening[0][1::2], parts.screening[1][1::2]),
                         parts.potential[1::2])


def _grid_pair(grid: LogRadialGrid) -> tuple[LogRadialGrid, LogRadialGrid]:
    """The fine and the coarse grid that a default solve on ``grid`` runs on.

    Both keep ``grid``'s ends.  The coarse grid has M points, with
    M - 1 = round((N - 1) / 6) for ``grid``'s N, so its spacing is about 6h;
    the fine grid has 2M - 1, spacing about 3h, and every other fine node is
    a coarse one.
    """
    m = round((grid.n_points - 1) / _COARSE_STEPS) + 1
    return (LogRadialGrid(r_min=grid.r_min, r_max=grid.r_max, n_points=2 * m - 1),
            LogRadialGrid(r_min=grid.r_min, r_max=grid.r_max, n_points=m))


def _tridiagonal(params: PotentialParams, D: int, l: int,
                 mode: CentrifugalMode, grid: LogRadialGrid, parts: _ChannelParts):
    """Diagonal and off-diagonal of the scaled radial operator on ``grid``.

    Built on the interior nodes; eigenvalues are kappa * E.  Also returns
    kappa V_eff on those nodes, which depends only on A, alpha and b: it is
    V_eff in the units where kappa = 1, so no factor 1/kappa can overflow;
    and the nodes themselves, for the deferred correction.  ``parts`` are the
    ``_channel_parts`` of ``params`` on ``grid``, which both modes share;
    only the mode's barrier and the Robin entry are added here, with the
    arithmetic of ``effective_potential``.  ``grid`` is ``parts.grid``,
    passed on its own because ``perfbench/tracing.py`` counts its points.
    """
    r, r_squared, h = parts.r, parts.r_squared, grid.spacing
    q = QuantumState(n=0, l=l, D=D).q
    with np.errstate(divide="ignore"):  # an infinite barrier fails the finiteness check below
        barrier = _barrier(params, q, mode, r_squared, *parts.screening)
    v_scaled = parts.potential + barrier
    # Robin end: u ~ e^(nu x) below the first node, nu^2 = 1/4 + r^2 kappa V_eff
    # there.  Clamped at 0: for q = 0, alpha = 0 the limit is exactly 0 and the
    # first node reads it about A r / b too low.
    nu = math.sqrt(max(0.25 + float(r_squared[0] * v_scaled[0]), 0.0))
    diag = parts.kinetic + v_scaled
    diag[0] = (2.0 / (h * h) - math.exp(-nu * h) / (h * h) + 0.25) / r_squared[0] + v_scaled[0]
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"kappa V_eff is not a finite float on grid {grid} for {params}")
    return diag, parts.off, v_scaled, r


def _eigenvector_nodes(vec: np.ndarray) -> int:
    magnitude = np.abs(vec)
    positive = vec[magnitude > 1e-9 * np.max(magnitude)] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def _bound_levels(b: float, k: int, grid: LogRadialGrid, diag: np.ndarray, off: np.ndarray,
                  v_scaled: np.ndarray, seeds: list[float], starts: np.ndarray | None = None):
    """Lowest k negative eigenpairs by certified inverse iteration from ``seeds``.

    ``seeds`` (kappa E) are the closed-form levels of
    ``spectrum.bound_states``, or the perturbed approximated levels with
    their eigenvectors as ``starts``.  LAPACK gets the matrix and the seeds
    times 4^m, m = round(log2 b) held to |m| <= 511, an exact power of two
    that leaves them at their size in s = r / b.

    Per level n: up to 3 solves of (T - sigma) x = w (LAPACK gtsv), from
    w = ``starts[:, n]`` or the flat unit vector, each followed by
    sigma <- sigma + w.x / x.x, the Rayleigh quotient of x, and w <- x / |x|.
    A solve that meets an exact zero pivot (gtsv's info > 0; a sigma that is
    an eigenvalue to working precision, as stebz's can be) moves sigma down
    by 1e-12 / 4 of itself and solves once more, one more solve in the count.
    An eigenvalue then lies within 2 / |x| of sigma.  The level has
    converged when that radius is within max(1e-12 |sigma|, 2^-52 |w|^T |T| |w|);
    the second term bounds how far rounding in the solves moves sigma from
    stebz's value (0.12 of it was the most seen), and stebz bisects that
    window.  The level is certified when stebz finds exactly one value there,
    negative and above level n - 1, and w has exactly n sign changes, as the
    n-th eigenvector must (Sturm oscillation).  A seed at or above 0, or the
    end of the seeds, stops it: a stebz count on (kappa min V_eff, 0] must then
    find only the n levels certified.  Otherwise one stebz call on the index
    range n..k-1 replaces the seeds from level n on by its negative values,
    run from the flat vector; a level that fails after that raises
    :class:`ConvergenceError`.  stebz floors each Sturm pivot at
    tiny * max off^2 of the scaled matrix: a floor over 1e-8 of
    kappa min V_eff (judged first) or of the shallowest level bisected or
    found raises :class:`ConvergenceError` (h r_min / b below about 1e-75,
    which only an explicit grid reaches).  One unknown is its own eigenpair:
    LAPACK's gtsv and stebz take no empty off-diagonal.  Returns the values,
    their eigenvectors as columns and the path taken, for the log.
    """
    v_min = float(np.min(v_scaled))
    lower = v_min - _LOWER_MARGIN * abs(v_min)
    if lower >= 0.0:  # the kinetic part is positive: nothing lies below 0
        return np.empty(0), np.empty((len(diag), 0)), "unsolved (kappa V_eff >= 0)"
    size = len(diag)
    if size == 1:
        values = diag[diag < 0.0]
        return values, np.ones((1, len(values))), "solved (1 unknown)"
    scale = math.ldexp(1.0, 2 * min(max(round(math.log2(b)), -511), 511))
    with np.errstate(over="ignore"):  # an infinite entry fails the pivot-floor judgement
        diag, off, lower = diag * scale, off * scale, lower * scale
    abs_diag, abs_off = np.abs(diag), np.abs(off)
    off_max = float(np.max(abs_off, initial=1.0))
    floor = np.finfo(float).tiny * off_max * off_max

    def judge(levels, what: str):  # levels at LAPACK's scale, the last the shallowest
        if len(levels) and not floor <= _MAX_PIVOT_FLOOR * abs(levels[-1]):  # inf fails too
            raise ConvergenceError(
                f"bisection resolves kappa E only to {floor / scale:.1e}, over "
                f"{_MAX_PIVOT_FLOOR:g} of {what} {levels[-1] / scale:.6g}, on grid {grid}: "
                "raise r_min")
    judge([lower], "kappa min V_eff")
    path = f"seeded{'' if starts is None else ' from approx'}"
    seeds, k = [seed * scale for seed in seeds[:k]], min(k, size)
    flat = np.full(size, 1.0 / math.sqrt(size))
    values, vectors, solves, bisected = [], [], 0, ""
    while len(values) < k:
        n = len(values)
        try:  # a failed certificate raises; the first one sends levels n.. to bisection
            if n == len(seeds) or not seeds[n] < 0.0:
                # a tolerance of float max stops stebz at the count
                found, _, _, _, info = dstebz(diag, off, 1, lower, 0.0, 0, 0,
                                              sys.float_info.max, "E")
                if info or found != n:
                    raise ConvergenceError(f"stebz finds {found - n} more levels below 0")
                break
            shift, w = seeds[n], flat if starts is None else starts[:, n]
            for _ in range(_SEED_SOLVES):
                x, info = dgtsv(off, diag - shift, off, w, overwrite_d=1)[3:]
                if info > 0:  # an exact zero pivot: shift is the eigenvalue to working precision
                    shift -= 0.25 * _SEED_WINDOW * abs(shift)
                    x, info = dgtsv(off, diag - shift, off, w, overwrite_d=1)[3:]
                    solves += 1
                solves += 1
                norm = math.sqrt(float(x @ x))
                if info or not 0.0 < norm < math.inf:
                    raise ConvergenceError(f"singular shift at level {n}")
                shift += float(w @ x) / (norm * norm)
                w = x / norm
                radius = 2.0 / norm
                if radius <= _SEED_WINDOW * abs(shift):
                    break
            a = np.abs(w)
            rounding = _ULP * float(a @ (abs_diag * a) + 2.0 * (a[:-1] * abs_off) @ a[1:])
            half = max(_SEED_WINDOW * abs(shift), rounding)
            if radius > half:
                raise ConvergenceError(f"level {n} not converged in {_SEED_SOLVES} solves")
            found, value, _, _, info = dstebz(diag, off, 1, shift - half, shift + half, 0, 0,
                                              _BISECTION_TOL, "E")
            if info or found != 1:
                raise ConvergenceError(f"stebz finds {found} values near level {n}")
            if not (values[-1] if values else -math.inf) < value[0] < 0.0:
                raise ConvergenceError(f"level {n} not negative and above level {n - 1}")
            nodes = _eigenvector_nodes(w)
            if nodes != n:
                raise ConvergenceError(f"level {n} has {nodes} nodes")
        except ConvergenceError as exc:
            if bisected:
                raise ConvergenceError(f"the levels that stebz's index range seeds fail their "
                                       f"certificate: {exc}, on grid {grid}") from None
            found, value, _, _, info = dstebz(diag, off, 3, 0.0, 0.0, n + 1, k,
                                              _BISECTION_TOL, "E")
            if info:  # pragma: no cover - LAPACK failure
                raise ConvergenceError(f"stebz fails with info {info} on grid {grid}") from None
            seeds[n:], starts = [v for v in value[:found] if v < 0.0], None
            judge(values + seeds[n:], "level")
            bisected = f", bisected from level {n} ({exc})"
            continue
        values.append(value[0])
        vectors.append(w)
    judge(values, "level")
    values = np.array(values)
    return (values / scale, np.array(vectors).reshape(len(values), size).T,
            f"{path} in {solves} solves{bisected}"
            + (", no other level below 0 (stebz count)" if len(values) < k else ""))


def _deferred_correction(r: np.ndarray, h: float, v_scaled: np.ndarray,
                         values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(h^2/12) sum_j c_ij^2 / sum_j w_ij^2 per level i, added to lambda_i.

    ``r`` holds the interior nodes.  u'' = (1/4 + r^2 (kappa V_eff - lambda)) u
    with u = w / r, from the equation itself; components at inverse
    iteration's noise floor are left out.
    """
    w = vectors.T  # one contiguous row per level: LAPACK returns columns
    u_xx = (0.25 / r + r * (v_scaled - values[:, None])) * w
    magnitude = np.abs(w)
    u_xx[magnitude <= _NOISE_FLOOR * np.max(magnitude, axis=1, keepdims=True)] = 0.0
    return (h * h / 12.0) * (np.sum(u_xx * u_xx, axis=1) / np.sum(w * w, axis=1))


def solve_radial(params: PotentialParams, D: int, l: int,
                 mode: CentrifugalMode = CentrifugalMode.APPROXIMATED,
                 grid: LogRadialGrid | None = None, k: int = 1) -> OracleResult:
    """Lowest k bound eigenvalues of the discretized radial equation.

    Solves through ``_solve_modes``.  Each level is seeded as the module
    docstring says and certified as ``_bound_levels`` says.  Each eigenvalue
    is stebz's, to full relative accuracy, and each eigenvector comes from
    certified inverse iteration, so the i-th returned state has exactly i
    interior nodes.  The bound levels are the negative ones; when fewer
    than k exist, the bound subset is returned with ``truncated`` set.

    ``grid`` defaults to the two grids of ``_grid_pair(default_grid(params,
    D, l, k))``; ``eigenvalues``, ``node_counts`` and ``grid`` are the fine
    grid's.  ``refined`` adds the deferred correction of
    ``_deferred_correction``, which cancels the O(h^2) stencil error, to
    give R_n; on the default grids it is the extrapolation
    E_n = (16 R_fine,n - R_coarse,n) / 15, which cancels the O(h^4) term as
    well.  A level that the correction lifts to E >= 0, a level nearer
    threshold than the grid resolves, raises :class:`ConvergenceError`, as
    does an extrapolated level at E >= 0.

    ``warnings`` holds the resolution warnings.  On an explicit grid, one is
    added when the correction moves a level by more than 1e-3 relative.  On
    the default grids, one is added when the largest two-grid estimate
    e_n = |E_n - R_fine,n| / |E_n| passes 2e-6: e_n reads the fine grid's
    own error, and with terms in h^2 that shrink by a common ratio, E_n
    errs by about (48/15) e_n^(3/2), so under that model 2e-6 keeps E_n
    within 1e-8.  A level that the coarse grid does not hold keeps R_fine,n
    and adds another warning.

    Raises :class:`DomainError` when an energy or refined energy
    kappa E / kappa is not a normal float (infinite, subnormal or rounded
    to 0), as ``spectrum.energy`` does for the closed form, and
    :class:`ConvergenceError` when bisection cannot resolve the levels or a
    level it seeds fails (``_bound_levels``).

    Each call logs its grid points, r_min and spacing h, level count, path
    (``seeded`` with its solve count, ``from approx`` for the perturbed
    seeds, ``bisected from level`` n with the reason, ``no approximated
    seeds`` with what the approximated solve raised) and stage timings at
    DEBUG level on the ``manning_rosen.oracle`` logger, the first line with
    the time of the parts its solves share (``shared assembly``).  An
    exact-mode call first logs, on a line of its own, any approximated
    solve that ``_solve_modes`` makes to seed it.  A default solve adds the
    coarse grid's points, level count and path (``seeded from fine``) and
    the coarse solve's time.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    return _solve_modes(params, D, l, [mode], grid, k)[mode]


def _solve(params: PotentialParams, D: int, l: int, mode: CentrifugalMode, k: int, approx,
           parts: _ChannelParts, coarse: _ChannelParts | None = None,
           shared: float | None = None):
    """One mode solved on ``parts.grid``, and the (diagonal, values, vectors) it solved.

    Seeds from the closed-form levels, except that an exact-mode solve with
    q^2 != 1 seeds from the ``approx`` that ``_solve_modes`` hands it: what
    this returned for approximated mode on the same grid and k, and then
    computes no closed-form seeds; or the :class:`ConvergenceError` or
    :class:`DomainError` that solve raised, and then has no seeds, so
    bisection seeds it.  ``coarse``, a default solve's ``_coarse_parts``,
    adds the extrapolation of ``_two_grid``; ``shared``, the seconds the
    shared parts took, goes into the DEBUG line.
    """
    grid, started = parts.grid, time.perf_counter()
    diag, off, v_scaled, r = _tridiagonal(params, D, l, mode, grid, parts)
    assembled = time.perf_counter()
    seeds, starts, unseeded = [], None, ""
    if mode is CentrifugalMode.EXACT and QuantumState(n=0, l=l, D=D).q ** 2 != 1:
        if isinstance(approx, Exception):  # bisection seeds the exact levels
            unseeded = f", no approximated seeds ({approx})"
        else:  # sigma_n from the approximated lambda_n, w_n on this grid
            diag_approx, values, starts = approx
            squares = starts * starts
            seeds = list(values + (diag - diag_approx) @ squares / np.sum(squares, axis=0))
    else:
        try:  # eps undefined (q = 0, |1 - 2 alpha| < 1) or E not normal: no seeds
            scaled = [entry.epsilon / params.b for entry in bound_states(params, D, l, k - 1)]
            seeds = [-s * s for s in scaled]
        except DomainError:
            pass
    values, vectors, path = _bound_levels(params.b, k, grid, diag, off, v_scaled, seeds, starts)
    solved = time.perf_counter()
    k_found = len(values)
    energies = tuple(float(v) / params.kappa for v in values)
    delta = _deferred_correction(r, grid.spacing, v_scaled, values, vectors)
    refined = tuple(float(v) / params.kappa for v in values + delta)
    _check_levels(params, grid, energies, refined, "deferred correction")
    corrected = time.perf_counter()
    if coarse is None:
        gap = max((abs(x - e) / abs(x) for x, e in zip(refined, energies)), default=0.0)
        warnings = () if gap <= _MAX_REFINEMENT_GAP else (
            f"refinement moves a level by {gap:.1e} relative "
            f"(want <= {_MAX_REFINEMENT_GAP:g}): the base grid is too coarse",)
        two_grid = ""
    else:
        refined, warnings, two_grid = _two_grid(params, D, l, mode, coarse, values, delta,
                                                vectors, refined)
        _check_levels(params, grid, energies, refined, "two-grid extrapolation")
    _LOG.debug("solve_radial D=%d l=%d %s: %d points from r_min %.6g with h %.6g, "
               "%d of %d levels %s%s; %sassembly %.4f s, eigensolve %.4f s, refinement %.4f s%s",
               D, l, mode.value, grid.n_points, grid.r_min, grid.spacing, k_found, k,
               path + unseeded, two_grid,
               "" if shared is None else f"shared assembly {shared:.4f} s, ",
               assembled - started, solved - assembled, corrected - solved,
               "" if coarse is None else f", coarse {time.perf_counter() - corrected:.4f} s")
    result = OracleResult(eigenvalues=energies, node_counts=tuple(range(k_found)), grid=grid,
                          mode=mode, refined=refined, truncated=k_found < k, warnings=warnings)
    return result, (diag, values, vectors)


def _check_levels(params: PotentialParams, grid: LogRadialGrid, energies: tuple[float, ...],
                  refined: tuple[float, ...], stage: str) -> None:
    """:class:`DomainError` unless every level is a normal float, then
    :class:`ConvergenceError` for a refined level that ``stage`` lifts to E >= 0."""
    if not all(sys.float_info.min <= abs(e) < math.inf for e in energies + refined):
        raise DomainError(f"oracle energies kappa E / kappa are not normal floats (finite, "
                          f"not subnormal, not 0) for {params}")
    for n, e in enumerate(refined):
        if e >= 0.0:
            raise ConvergenceError(
                f"the {stage} lifts bound level n = {n} to {e:.3g} >= 0 on "
                f"grid {grid}: the level lies closer to threshold than the grid resolves")


def _two_grid(params: PotentialParams, D: int, l: int, mode: CentrifugalMode,
              coarse: _ChannelParts, values: np.ndarray, delta: np.ndarray,
              vectors: np.ndarray, refined: tuple[float, ...]):
    """Refined levels E_n = (16 R_n - R_coarse,n) / 15, their warnings and the DEBUG text.

    ``refined`` holds the fine grid's R_n = lambda_n + delta_n in energy
    units, which err by O(h^4); the extrapolation cancels that term.  Coarse
    level n is seeded at lambda_n - 3 delta_n = 4 lambda_n - 3 R_n, because
    the O(h^2) error, about -delta_n, grows 4-fold at twice the spacing;
    inverse iteration starts from the fine eigenvector at the shared nodes,
    and ``_bound_levels`` certifies each level.  Where that raises
    :class:`ConvergenceError`, the coarse grid holds no level.
    e_n = |E_n - R_n| / |E_n| estimates the error of R_n; above
    ``_MAX_TWO_GRID_ERROR`` it adds one warning.  A level the coarse grid
    does not hold keeps R_n and adds another.
    """
    grid = coarse.grid
    diag, off, v_scaled, r = _tridiagonal(params, D, l, mode, grid, coarse)
    try:
        coarse_values, starts, path = _bound_levels(params.b, len(values), grid, diag, off,
                                                    v_scaled, list(values - 3.0 * delta),
                                                    vectors[1::2])
    except ConvergenceError as exc:
        coarse_values, starts, path = np.empty(0), np.empty((len(diag), 0)), f"none ({exc})"
    held = len(coarse_values)
    coarse_refined = coarse_values + _deferred_correction(r, grid.spacing, v_scaled,
                                                          coarse_values, starts)
    extrapolated = (16.0 * (values[:held] + delta[:held]) - coarse_refined) / 15.0
    levels = tuple(float(v) / params.kappa for v in extrapolated) + refined[held:]
    estimate = max((abs(e - x) / abs(e) for e, x in zip(levels, refined)), default=0.0)
    warnings = () if estimate <= _MAX_TWO_GRID_ERROR else (
        f"two-grid error estimate {estimate:.1e} relative (want <= {_MAX_TWO_GRID_ERROR:g}): "
        "the default grid is too coarse",)
    if held < len(values):
        warnings += (f"the coarse grid holds {held} of {len(values)} levels: levels n >= {held} "
                     "keep their one-grid refined value",)
    return levels, warnings, (f"; coarse {grid.n_points} points, {held} of {len(values)} levels "
                              + path.replace(" from approx", " from fine", 1))


@dataclass(frozen=True)
class AuditResult:
    """Closed form vs. both oracle modes for one state; None where a mode has no value."""

    e_closed: float
    e_exact: float | None
    e_approx: float | None
    rel_errors: tuple[float | None, float | None]  # (closed vs approx, closed vs exact)


def _solve_modes(params: PotentialParams, D: int, l: int, modes: list[CentrifugalMode],
                 grid: LogRadialGrid | None, k: int) -> dict[CentrifugalMode, OracleResult]:
    """``solve_radial`` on ``grid`` in each of ``modes``, from one ``_channel_parts``.

    The one sequencer of the oracle's solves: ``solve_radial`` and
    ``audit_channel`` reach ``_solve`` only through it.  It solves each mode
    in ``modes`` once, approximated first.  At q^2 = 1 the two matrices and
    their seeds are the same, so after an approximated solve the exact
    result is that one in exact mode, logged as such, and no second solve
    runs.  For q^2 != 1 the approximated eigenpairs seed the exact solve;
    exact mode asked alone gets them from an approximated solve of its own,
    on the fine grid only, and where that raises :class:`ConvergenceError`
    or :class:`DomainError`, from bisection.

    ``grid`` None solves each mode on both grids of ``_grid_pair(
    default_grid(params, D, l, k))``, the coarse grid's parts sliced from
    the fine ones (``_coarse_parts``).  The first solve that logs reports
    the time that the shared parts took.
    """
    grid, coarse_grid = (_grid_pair(default_grid(params, D, l, k)) if grid is None
                         else (grid, None))
    started = time.perf_counter()
    parts, q = _channel_parts(params, grid), QuantumState(n=0, l=l, D=D).q
    coarse = None if coarse_grid is None else _coarse_parts(parts, coarse_grid)
    shared = time.perf_counter() - started
    solves, approx = {}, None
    for mode in sorted(set(modes), key=lambda mode: mode is CentrifugalMode.EXACT):
        if mode is CentrifugalMode.EXACT and approx is not None and q * q == 1:
            solves[mode] = dataclasses.replace(solves[CentrifugalMode.APPROXIMATED], mode=mode)
            _LOG.debug("solve_radial D=%d l=%d %s: %d points from r_min %.6g with h %.6g, "
                       "%d of %d levels from the approx solve, not solved again "
                       "(q^2 = 1: the same matrix and seeds)", D, l, mode.value,
                       grid.n_points, grid.r_min, grid.spacing, len(solves[mode].refined), k)
            continue
        if mode is CentrifugalMode.EXACT and approx is None and q * q != 1:
            try:  # exact mode alone: an approximated solve on this grid seeds it
                approx = _solve(params, D, l, CentrifugalMode.APPROXIMATED, k, None, parts,
                                None, shared)[1]
                shared = None
            except (ConvergenceError, DomainError) as exc:  # bisection seeds the exact levels
                approx = exc
        solves[mode], approx = _solve(params, D, l, mode, k, approx, parts, coarse, shared)
        shared = None
    return solves


def audit_channel(params: PotentialParams, D: int, l: int, ns: list[int],
                  modes=(CentrifugalMode.EXACT, CentrifugalMode.APPROXIMATED),
                  grid: LogRadialGrid | None = None) -> list[AuditResult]:
    """Closed form vs. the oracle in ``modes``, one result per level n in ``ns``.

    Solves through ``_solve_modes`` on ``grid`` or else the channel's
    default grids, as ``solve_radial`` does, each mode asked once for
    max(ns) + 1 levels.  A mode left out, and an exact level unbound as the
    module docstring says, read None.  Raises :class:`DomainError` for an
    empty ``ns`` or ``modes``, and :class:`UnboundStateError` or
    :class:`DomainError` for an n whose closed form is unbound or undefined,
    all before any solve; then what ``solve_radial`` raises, and
    :class:`ConvergenceError` for any other level that a solve lacks.  The
    closed-form energies come from ``spectrum.energy``, one call per n.
    """
    if not ns:
        raise DomainError("need at least one level n, got none")
    if not modes:
        raise DomainError("need at least one centrifugal mode, got none")
    closed = [_closed_energy(params, QuantumState(n=n, l=l, D=D)).energy for n in ns]
    solves = _solve_modes(params, D, l, modes, grid, max(ns) + 1)
    approx = solves.get(CentrifugalMode.APPROXIMATED)
    held = len(approx.refined) if approx is not None else 0
    audits = []
    for n, e_closed in zip(ns, closed):
        found = {mode: None if mode is CentrifugalMode.EXACT and len(result.refined) <= n < held
                 else result.best(n) for mode, result in solves.items()}
        e_exact, e_approx = map(found.get, (CentrifugalMode.EXACT, CentrifugalMode.APPROXIMATED))
        audits.append(AuditResult(e_closed=e_closed, e_exact=e_exact, e_approx=e_approx,
                                  rel_errors=tuple(None if e is None else abs(e_closed - e) / abs(e)
                                                   for e in (e_approx, e_exact))))
    return audits


def approximation_audit(params: PotentialParams, state: QuantumState,
                        grid: LogRadialGrid | None = None) -> AuditResult:
    """Quantify the centrifugal approximation for one bound state.

    Returns the closed-form energy, the oracle energy with the exact 1/r^2
    barrier, the oracle energy with the short-range replacement, and both
    relative differences.  The approximated oracle solves the same equation
    as the closed form, so that pair agrees to solver accuracy; the exact
    pair measures the physical quality of the replacement.  Both modes come
    from one ``audit_channel`` call.  Raises as ``audit_channel`` does, and
    :class:`ConvergenceError` where the exact barrier unbinds the level.
    """
    [audit] = audit_channel(params, state.D, state.l, [state.n], grid=grid)
    if audit.e_exact is None:
        raise ConvergenceError(f"the exact 1/r^2 barrier unbinds {state}, which the "
                               f"approximated barrier holds")
    return audit
