"""Independent finite-difference eigensolver for the radial equation.

Discretizes  g'' + kappa [E - V_eff(r)] g = 0  with the standard 3-point
second difference on a uniform grid with Dirichlet ends, giving a symmetric
tridiagonal eigenproblem whose bound levels are the negative eigenvalues
from LAPACK's bisection (``sturm_count`` certifies that count independently).
This path shares no algebra with the closed-form spectrum and serves as its
ground truth, in either centrifugal mode.

Richardson extrapolation over grids (h, h/2) cancels the leading O(h^2)
discretization error: E_rich = (4 E_{h/2} - E_h) / 3.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError
from .model import CentrifugalMode, PotentialParams, QuantumState, effective_potential
from .spectrum import energy as _closed_energy
from .spectrum import epsilon_parameter

__all__ = [
    "RadialGrid",
    "OracleResult",
    "AuditResult",
    "default_grid",
    "sturm_count",
    "solve_radial",
    "oracle_energy",
    "approximation_audit",
]

# Points per local de Broglie wavelength below which a resolution warning fires.
_MIN_POINTS_PER_WAVELENGTH = 20.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet boundaries at both ends."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise DomainError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_points < 3:
            raise DomainError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)

    def refined(self) -> "RadialGrid":
        """Same interval at half the spacing (2N - 1 points)."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.n_points - 1)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues of the discretized radial problem."""

    eigenvalues: tuple[float, ...]
    node_counts: tuple[int, ...]
    grid: RadialGrid
    mode: CentrifugalMode
    richardson_estimate: tuple[float, ...] | None = None
    truncated: bool = False
    warnings: tuple[str, ...] = ()

    def best(self, index: int) -> float:
        """Richardson value when available, else the base-grid eigenvalue."""
        if self.richardson_estimate is not None and index < len(self.richardson_estimate):
            return self.richardson_estimate[index]
        return self.eigenvalues[index]


def default_grid(params: PotentialParams, D: int, l: int, k: int = 1) -> RadialGrid:
    """Grid sized from the closed-form decay estimate of the slowest state.

    The wavefunction of a state with energy parameter eps decays like
    exp(-eps r / b), so r_max = b (35 + 5 n_top) / eps_min keeps the
    truncated tail below ~1e-15 while concentrating points where the
    states live.  r_min = 1e-12 b keeps the Dirichlet wall from shifting
    s-wave-like eigenvalues, and the point count is raised for q <= 2,
    where the r^((q+1)/2) origin behaviour slows 3-point convergence.
    """
    q = D + 2 * l - 2
    eps_min = None
    n_top = 0
    for n in range(max(k, 1)):
        eps = epsilon_parameter(params, QuantumState(n=n, l=l, D=D))
        if eps > 0.0:
            eps_min = eps
            n_top = n
        else:
            break
    if eps_min is None:
        eps_min = 1.0  # nothing bound: fall back to a few potential ranges
    r_max = params.b * (35.0 + 5.0 * n_top) / eps_min
    n_points = 128001 if q <= 2 else 32001
    return RadialGrid(r_min=1e-12 * params.b, r_max=r_max, n_points=n_points)


def _tridiagonal(params: PotentialParams, D: int, l: int,
                 mode: CentrifugalMode, grid: RadialGrid):
    """Diagonal and off-diagonal of the scaled operator -d^2/dr^2 + kappa V_eff.

    Built on the interior nodes; eigenvalues are kappa * E.
    """
    r = grid.points()
    h = grid.spacing
    state = QuantumState(n=0, l=l, D=D)
    v_scaled = params.kappa * effective_potential(params, state, r[1:-1], mode)
    diag = 2.0 / (h * h) + v_scaled
    off = np.full(len(diag) - 1, -1.0 / (h * h))
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


def solve_radial(params: PotentialParams, D: int, l: int,
                 mode: CentrifugalMode = CentrifugalMode.APPROXIMATED,
                 grid: RadialGrid | None = None, k: int = 1,
                 richardson: bool = True) -> OracleResult:
    """Lowest k bound eigenvalues of the discretized radial equation.

    The lowest min(k, interior points) eigenvalues come from bisection and
    the eigenvectors from inverse iteration (LAPACK's tridiagonal path), so
    the i-th returned state has exactly i interior nodes.  The bound levels
    are the negative ones; when fewer than k exist, the bound subset is
    returned with ``truncated`` set.  ``richardson`` adds eigenvalues
    recomputed on the half-spacing grid, combined as (4 E_{h/2} - E_h)/3.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if grid is None:
        grid = default_grid(params, D, l, k)
    diag, off, v_scaled = _tridiagonal(params, D, l, mode, grid)
    try:
        values, vectors = eigh_tridiagonal(diag, off, select="i",
                                           select_range=(0, min(k, len(diag)) - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    k_found = int(np.count_nonzero(values < 0.0))
    truncated = k_found < k
    if k_found == 0:
        return OracleResult(eigenvalues=(), node_counts=(), grid=grid, mode=mode,
                            richardson_estimate=() if richardson else None,
                            truncated=True)
    values = values[:k_found]
    kappa = params.kappa
    energies = tuple(float(v) / kappa for v in values)
    nodes = tuple(_eigenvector_nodes(vectors[:, i]) for i in range(k_found))

    warnings: list[str] = []
    local_k_sq = values[-1] - v_scaled
    k_max = math.sqrt(float(np.max(local_k_sq, initial=0.0)))
    if k_max > 0.0 and grid.spacing * k_max > 2.0 * math.pi / _MIN_POINTS_PER_WAVELENGTH:
        points_per_wave = 2.0 * math.pi / (grid.spacing * k_max)
        warnings.append(
            f"grid resolves only {points_per_wave:.1f} points per local de Broglie "
            f"wavelength at the highest state (want >= {_MIN_POINTS_PER_WAVELENGTH:g})"
        )

    rich: tuple[float, ...] | None = None
    if richardson:
        fine = grid.refined()
        diag_f, off_f, _ = _tridiagonal(params, D, l, mode, fine)
        values_f = eigh_tridiagonal(diag_f, off_f, select="i",
                                    select_range=(0, k_found - 1), eigvals_only=True)
        rich = tuple((4.0 * float(vf) / kappa - e) / 3.0
                     for vf, e in zip(values_f, energies))

    return OracleResult(eigenvalues=energies, node_counts=nodes, grid=grid, mode=mode,
                        richardson_estimate=rich, truncated=truncated,
                        warnings=tuple(warnings))


def oracle_energy(params: PotentialParams, state: QuantumState, mode: CentrifugalMode,
                  grid: RadialGrid | None = None) -> float:
    """Richardson-refined oracle energy of one state in one centrifugal mode.

    Raises :class:`ConvergenceError` when the grid holds fewer than n + 1
    bound levels.
    """
    res = solve_radial(params, state.D, state.l, mode=mode, grid=grid,
                       k=state.n + 1, richardson=True)
    if len(res.eigenvalues) <= state.n:
        raise ConvergenceError(
            f"oracle found only {len(res.eigenvalues)} bound levels in {mode.value} "
            f"mode for {state}; grid {res.grid}")
    return res.best(state.n)


@dataclass(frozen=True)
class AuditResult:
    """Closed form vs. both oracle modes for one state."""

    e_closed: float
    e_exact: float
    e_approx: float
    rel_errors: tuple[float, float]  # (closed vs approx, closed vs exact)


def approximation_audit(params: PotentialParams, state: QuantumState,
                        grid: RadialGrid | None = None) -> AuditResult:
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
