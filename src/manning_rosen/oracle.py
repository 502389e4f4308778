"""Independent finite-difference eigensolver for the radial equation.

Solves  g'' + kappa [E - V_eff(r)] g = 0  as a symmetric tridiagonal
eigenproblem whose eigenvalues are kappa E; the bound levels are the
negative ones, found by LAPACK bisection (``sturm_count`` is the
independent count the tests check them against).  Every returned value is
an eigenvalue of the assembled matrix, so this path shares no algebra with
the closed-form spectrum and serves as its ground truth, in either
centrifugal mode.  The closed form only sizes the default grid and says
where bisection looks.

The grid is uniform in x = ln r (Langer's substitution r = e^x,
g = r^(1/2) u).  There the equation reads

    -u'' + [1/4 + kappa r^2 V_eff] u = kappa E r^2 u,

and the r^((q+1)/2) behaviour of g at the origin becomes the smooth
exponential u ~ e^(nu x), nu^2 = 1/4 + lim r^2 kappa V_eff.  The 3-point
second difference in x, symmetrised by w = r u, gives diagonal
(T_ii + 1/4)/r_i^2 + kappa V_eff(r_i) and off-diagonal -1/(h^2 r_i r_(i+1)).
The left end is a Robin condition: the ghost node below the first unknown
holds e^(-nu h) times it, with nu read off the assembled potential at that
node; the right end is Dirichlet.  The matrix is strongly graded (entries
near 1e26 at the origin), so bisection runs to a tolerance of a few times
the smallest normal number: at LAPACK's default, scaled by the largest
entry, the eigenvalues come out wrong by 1e9 or more.

Bisection works on a value window, not an index range.  Asked for levels
0..k-1 by index, LAPACK first brackets them by Sturm counts over the whole
Gershgorin interval, about [-5e20, 1e26] on the graded matrix, and that
search costs more than bisecting the levels themselves.  The kinetic part
is positive (a second difference with a Robin ratio <= 1 at one end and
Dirichlet at the other, plus 1/(4 r^2)), so no eigenvalue lies below
kappa min V_eff: that is the proven lower end of the window.  Its top is
the midpoint of closed-form levels k-1 and k, or 0 when either is unbound
or undefined.  A top that misses a level costs one re-solve on
[lower, 0]; it cannot skip a level or return a wrong one.

The leading discretization error is O(h^2): the stencil reads
-u'' - (h^2/12) u^(4) + O(h^4), so to first order
lambda_h = lambda - (h^2/12) int (u'')^2 dx / int r^2 u^2 dx.  That error
is removed by a deferred correction from the eigenvector already in hand:
u'' comes from the equation itself, and the integration by parts leaves no
boundary term, because u ~ e^(nu x) as x -> -inf and u = 0 at r_max.  It
costs O(N) per level and converges at order 4, so each channel takes one
eigensolve.
"""

import dataclasses
import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError
from .model import CentrifugalMode, PotentialParams, QuantumState, effective_potential
from .spectrum import bound_states, epsilon_parameter
from .spectrum import energy as _closed_energy

__all__ = [
    "LogRadialGrid",
    "OracleResult",
    "AuditResult",
    "default_grid",
    "sturm_count",
    "solve_radial",
    "oracle_energy",
    "approximation_audit",
]

# Points of the default log-mapped grid.
_LOG_GRID_POINTS = 4001
# Bisection tolerance: the graded log-grid matrix needs full relative accuracy.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny
# Relative margin that keeps rounding in V_eff from lifting the window's lower end.
_WINDOW_MARGIN = 1e-9
# Eigenvector components at or below this fraction of the largest are inverse
# iteration's noise floor, which the 1/(4r) in u'' would lift by ~1e11.
_NOISE_FLOOR = 1e-12
# Relative move of a level under refinement above which the base grid is too coarse.
_MAX_REFINEMENT_GAP = 1e-3
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
        return np.geomspace(self.r_min, self.r_max, self.n_points)


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
        """Refined energy of level ``index``.

        Raises :class:`ConvergenceError` when the solve holds no level
        ``index``, that is, fewer than index + 1 bound levels.
        """
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
    return 1e-12 * min(b, r_max)


def default_grid(params: PotentialParams, D: int, l: int, k: int = 1) -> LogRadialGrid:
    """Log-mapped grid sized from the closed-form decay estimate of the slowest state.

    The wavefunction of a state with energy parameter eps decays like
    exp(-eps r / b), so r_max = b (35 + 5 n_top) / eps_min keeps the
    truncated tail below ~1e-15; n_top is the highest of the first k levels
    that ``bound_states`` finds bound, and eps_min = 1 when none is.  The
    grid is uniform in x = ln r from the ``_grid_origin`` of explicit grids,
    with the Robin ghost node there carrying the u ~ e^(nu x) origin
    behaviour of every channel, q = 0 and eta < 0 included, so one fixed
    point count serves all of them.
    """
    entries = bound_states(params, D, l, n_max=max(k, 1) - 1)
    n_top, eps_min = (entries[-1].state.n, entries[-1].epsilon) if entries else (0, 1.0)
    r_max = params.b * (35.0 + 5.0 * n_top) / eps_min
    return LogRadialGrid(r_min=_grid_origin(params.b, r_max), r_max=r_max,
                         n_points=_LOG_GRID_POINTS)


def _tridiagonal(params: PotentialParams, D: int, l: int,
                 mode: CentrifugalMode, grid: LogRadialGrid):
    """Diagonal and off-diagonal of the scaled radial operator on ``grid``.

    Built on the interior nodes; eigenvalues are kappa * E.  Also returns
    kappa V_eff on those nodes, which depends only on A, alpha and b: it is
    V_eff in the units where kappa = 1, so no factor 1/kappa can overflow.
    """
    r = grid.points()[1:-1]
    h = grid.spacing
    state = QuantumState(n=0, l=l, D=D)
    unit_kappa = dataclasses.replace(params, mu=0.5, hbar=1.0)
    v_scaled = effective_potential(unit_kappa, state, r, mode)
    # Robin end: u ~ e^(nu x) below the first node, nu^2 = 1/4 + r^2 kappa V_eff
    # there.  Clamped at 0: for q = 0, alpha = 0 the limit is exactly 0 and the
    # first node reads it about A r / b too low.
    nu = math.sqrt(max(0.25 + float(r[0] * r[0] * v_scaled[0]), 0.0))
    t_diag = np.full(len(r), 2.0 / (h * h))
    t_diag[0] -= math.exp(-nu * h) / (h * h)
    diag = (t_diag + 0.25) / (r * r) + v_scaled
    if not np.all(np.isfinite(diag)):
        raise DomainError(f"kappa V_eff is not a finite float on grid {grid} for {params}")
    off = -1.0 / (h * h * r[:-1] * r[1:])
    return diag, off, v_scaled


def sturm_count(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Eigenvalues of the symmetric tridiagonal matrix strictly below shift.

    Standard LDL^T sign count; exact integer answer regardless of clustering.
    """
    count = 0
    d = float(diag[0]) - shift
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        if d == 0.0:
            d = 1e-300  # grazing pivot: standard tiny perturbation
        d = float(diag[i]) - shift - float(off[i - 1]) ** 2 / d
        if d < 0.0:
            count += 1
    return count


def _eigenvector_nodes(vec: np.ndarray) -> int:
    significant = np.abs(vec) > 1e-9 * np.max(np.abs(vec))
    signs = np.sign(vec[significant])
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def _window_top(params: PotentialParams, D: int, l: int, k: int) -> float:
    """kappa times the midpoint of closed-form levels k-1 and k; 0 when either is unbound."""
    try:
        eps = [epsilon_parameter(params, QuantumState(n=n, l=l, D=D)) for n in (k - 1, k)]
    except DomainError:  # no real shape parameter (q = 0, |1 - 2 alpha| < 1)
        return 0.0
    if min(eps) <= 0.0:
        return 0.0
    s0, s1 = eps[0] / params.b, eps[1] / params.b
    return -0.5 * (s0 * s0 + s1 * s1)  # kappa E_n = -eps_n^2 / b^2


def _eigenpairs(diag: np.ndarray, off: np.ndarray, lower: float, top: float):
    """Eigenpairs with values in (lower, top], by bisection and inverse iteration."""
    try:
        return eigh_tridiagonal(diag, off, select="v", select_range=(lower, top),
                                lapack_driver="stebz", tol=_BISECTION_TOL)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc


def _bound_levels(params: PotentialParams, D: int, l: int, k: int,
                  diag: np.ndarray, off: np.ndarray, v_scaled: np.ndarray):
    """Lowest k negative eigenpairs, bisected only inside a value window.

    Returns the values, their eigenvectors as columns, the window (lower,
    top] last searched and whether it had to be widened to (lower, 0].
    """
    v_min = float(np.min(v_scaled))
    lower = v_min - _WINDOW_MARGIN * abs(v_min)
    if lower >= 0.0:  # the kinetic part is positive: nothing lies below 0
        return np.empty(0), np.empty((len(diag), 0)), (lower, 0.0), False
    top = _window_top(params, D, l, k)
    if not lower < top:
        top = 0.0
    values, vectors = _eigenpairs(diag, off, lower, top)
    widened = len(values) < k and top < 0.0
    if widened:
        top = 0.0
        values, vectors = _eigenpairs(diag, off, lower, top)
    bound = values < 0.0
    return values[bound][:k], vectors[:, bound][:, :k], (lower, top), widened


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

    ``grid`` defaults to ``default_grid(params, D, l, k)``.  The eigenvalues
    come from bisection to full relative accuracy inside the value window
    (lower, top] and the eigenvectors from inverse iteration (LAPACK's stebz
    and stein), so the i-th returned state has exactly i interior nodes.
    lower = kappa min V_eff less a 1e-9 relative margin bounds the spectrum
    from below; top is kappa times the midpoint of closed-form levels k-1
    and k, or 0 when either is unbound or the closed form is undefined.
    When the window holds fewer than k levels it is widened once to
    (lower, 0].  Bisecting by index instead would first bracket the levels
    over the Gershgorin interval of the graded matrix, which is the slower
    part.  The bound levels are the negative ones; when fewer than k exist,
    the bound subset is returned with ``truncated`` set.

    ``refined`` cancels the O(h^2) stencil error: level i gets the deferred
    correction lambda_i + (h^2/12) sum_j c_ij^2 / sum_j w_ij^2 from its
    eigenvector w_i, with c_ij = (1/4 + r_j^2 (kappa V_eff,j - lambda_i)) w_ij / r_j
    the u'' the equation gives, and components with |w_ij| <= 1e-12 max|w_i|
    left out of the sum.  A level that the correction moves by more than
    1e-3 relative adds the one resolution warning.

    Raises :class:`DomainError` when an energy kappa E / kappa is not a
    finite float (a subnormal kappa), as ``spectrum.energy`` does for the
    closed form, and :class:`ConvergenceError` when stebz's pivot floor
    tiny * max off^2, which bounds its accuracy, exceeds 1e-8 of the
    shallowest level found (r_min below about 1e-73 at 4001 points).

    Each call logs its grid points, window, level count and stage timings at
    DEBUG level on the ``manning_rosen.oracle`` logger.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if grid is None:
        grid = default_grid(params, D, l, k)
    started = time.perf_counter()
    diag, off, v_scaled = _tridiagonal(params, D, l, mode, grid)
    assembled = time.perf_counter()
    values, vectors, window, widened = _bound_levels(params, D, l, k, diag, off, v_scaled)
    solved = time.perf_counter()
    k_found = len(values)
    # stebz floors each Sturm pivot at tiny * max off^2, and that floor is also its
    # absolute accuracy; 1/(h r_min)^4 lifts it to the levels when r_min is tiny
    off_max = float(np.max(np.abs(off), initial=1.0))
    pivot_floor = np.finfo(float).tiny * off_max * off_max
    if k_found and pivot_floor > _MAX_PIVOT_FLOOR * abs(float(values[-1])):
        raise ConvergenceError(
            f"bisection resolves kappa E only to {pivot_floor:.1e}, over {_MAX_PIVOT_FLOOR:g} "
            f"of level {float(values[-1]):.6g}, on grid {grid}: raise r_min")
    kappa = params.kappa
    energies = tuple(float(v) / kappa for v in values)
    nodes = tuple(_eigenvector_nodes(vectors[:, i]) for i in range(k_found))

    delta = _deferred_correction(grid.points()[1:-1], grid.spacing, v_scaled, values, vectors)
    refined = tuple(float(v) / kappa for v in values + delta)
    if not all(map(math.isfinite, energies + refined)):
        raise DomainError(f"oracle energies kappa E / kappa are not finite floats for {params}")
    warnings: list[str] = []
    if refined:
        gap = max(abs(x - e) / abs(x) for x, e in zip(refined, energies))
        if gap > _MAX_REFINEMENT_GAP:
            warnings.append(
                f"refinement moves a level by {gap:.1e} relative "
                f"(want <= {_MAX_REFINEMENT_GAP:g}): the base grid is too coarse"
            )
    _LOG.debug("solve_radial D=%d l=%d %s: %d points, window (%.6g, %.6g]%s, "
               "%d of %d levels; assembly %.4f s, eigensolve %.4f s, refinement %.4f s",
               D, l, mode.value, grid.n_points, window[0], window[1],
               " widened" if widened else "", k_found, k, assembled - started,
               solved - assembled, time.perf_counter() - solved)

    return OracleResult(eigenvalues=energies, node_counts=nodes, grid=grid, mode=mode,
                        refined=refined, truncated=k_found < k,
                        warnings=tuple(warnings))


def oracle_energy(params: PotentialParams, state: QuantumState, mode: CentrifugalMode,
                  grid: LogRadialGrid | None = None) -> float:
    """Refined oracle energy of one state in one centrifugal mode.

    ``OracleResult.best`` raises :class:`ConvergenceError` when the grid
    holds fewer than n + 1 bound levels.
    """
    return solve_radial(params, state.D, state.l, mode=mode, grid=grid,
                        k=state.n + 1).best(state.n)


@dataclass(frozen=True)
class AuditResult:
    """Closed form vs. both oracle modes for one state."""

    e_closed: float
    e_exact: float
    e_approx: float
    rel_errors: tuple[float, float]  # (closed vs approx, closed vs exact)


def approximation_audit(params: PotentialParams, state: QuantumState,
                        grid: LogRadialGrid | None = None) -> AuditResult:
    """Quantify the centrifugal approximation for one bound state.

    Returns the closed-form energy, the oracle energy with the exact 1/r^2
    barrier, the oracle energy with the short-range replacement, and both
    relative differences.  The approximated oracle solves the same equation
    as the closed form, so that pair agrees to solver accuracy; the exact
    pair measures the physical quality of the replacement.
    """
    e_closed = _closed_energy(params, state).energy
    e_exact = oracle_energy(params, state, CentrifugalMode.EXACT, grid)
    e_approx = oracle_energy(params, state, CentrifugalMode.APPROXIMATED, grid)
    return AuditResult(
        e_closed=e_closed,
        e_exact=e_exact,
        e_approx=e_approx,
        rel_errors=(abs(e_closed - e_approx) / abs(e_approx),
                    abs(e_closed - e_exact) / abs(e_exact)),
    )
