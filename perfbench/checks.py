"""Reference computations made apart from the package, and the checks built on them.

Everything here is plain Python and NumPy: the closed-form energy of the
paper, the Hulthen (alpha = 0, 1) form, the centrifugal bracket, Simpson's
rule on a geometric grid.  Nothing imports ``manning_rosen``, so a fault in
the package cannot hide in the value it is checked against.
"""

import math

import numpy as np

ORBITALS = "spdfgh"

# |closed form - printed value| allowed on the paper's table (its printed precision)
TABLE_TOL = 5e-9
# approximated-mode oracle vs closed form, relative
ORACLE_TOL = 1e-6
# widening of the exact-mode bracket, relative to |E|
BRACKET_WIDEN = 1e-6
# closed-form vs quadrature normalization constant, relative
NORM_TOL = 1e-8
# integral of the sampled |g|^2 vs 1
DENSITY_TOL = 1e-8
# package closed form vs the formula below; both are a few flops
CLOSED_TOL = 1e-12
# alpha -> 1 - alpha changes the energy by at most this many ulp
MIRROR_ULPS = 4

# The paper's four misprinted cells, (label, 1/b, D, alpha column), each mapped
# to its interdimensional partner (n, l -/+ 1, D +/- 2), which has the same
# D + 2l and hence the same energy.  Both cells of the alpha = 0.75 pair are
# misprints, so there only the equality and the formula below are checked.
MISPRINTS = {
    ("6d", 0.025, 2, "0.75"): ("5p", 0.025, 4, "0.75"),
    ("5p", 0.025, 4, "0.75"): ("6d", 0.025, 2, "0.75"),
    ("5p", 0.025, 4, "0,1"): ("6d", 0.025, 2, "0,1"),
    ("5p", 0.025, 4, "1.5"): ("6d", 0.025, 2, "1.5"),
}


def parse_label(label: str) -> tuple[int, int]:
    """'4d' -> (n, l) = (1, 2)."""
    l = ORBITALS.index(label[-1])
    return int(label[:-1]) - l - 1, l


def state_label(n: int, l: int) -> str:
    return f"{n + l + 1}{ORBITALS[l]}"


def epsilon(A: float, alpha: float, n: int, l: int, D: int) -> float:
    """Signed energy parameter of the paper; the state is bound iff it is > 0."""
    q = D + 2 * l - 2
    eta = 0.5 * (math.sqrt((1.0 - 2.0 * alpha) ** 2 + q * q - 1.0) - 1.0)
    return (4.0 * A + 1.0 - 4.0 * (n + 1) ** 2 - q * q - 4.0 * (2 * n + 1) * eta) / (
        8.0 * (n + 1 + eta))


def closed_energy(A: float, alpha: float, b: float, n: int, l: int, D: int) -> float | None:
    """E = -eps^2 / (2 b^2) in atomic units (mu = hbar = 1); None when unbound."""
    eps = epsilon(A, alpha, n, l, D)
    return -eps * eps / (2.0 * b * b) if eps > 0.0 else None


def hulthen_energy(A: float, b: float, n: int, l: int, D: int) -> float | None:
    """alpha in {0, 1}: E = -(4A - M^2)^2 / (32 b^2 M^2), M = 2n + D + 2l - 1."""
    m = 2 * n + D + 2 * l - 1
    return -(4.0 * A - m * m) ** 2 / (32.0 * b * b * m * m) if 4.0 * A > m * m else None


def hulthen_scale(A: float, b: float, n: int, l: int, D: int) -> float:
    """Size of the largest term in the Hulthen form, for a rounding tolerance."""
    m = 2 * n + D + 2 * l - 1
    return (4.0 * A + m * m) ** 2 / (32.0 * b * b * m * m)


def barrier_bound(q: int, b: float, kappa: float = 2.0) -> float:
    """B = (q^2 - 1) / (48 kappa b^2).

    The exact barrier exceeds the approximated one by (q^2 - 1)/(4 kappa) times
    1/r^2 - exp(-r/b) / (b^2 (1 - exp(-r/b))^2), which lies in (0, 1/(12 b^2)]
    for every r > 0; by eigenvalue monotonicity E_exact - E_closed lies
    between min(0, B) and max(0, B).
    """
    return (q * q - 1.0) / (48.0 * kappa * b * b)


def rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def oracle_ok(e_oracle: float, e_closed: float) -> bool:
    return rel_gap(e_oracle, e_closed) <= ORACLE_TOL


def bracket_ok(e_exact: float, e_closed: float, bound: float) -> bool:
    widen = BRACKET_WIDEN * abs(e_closed)
    return (e_closed + min(0.0, bound) - widen <= e_exact
            <= e_closed + max(0.0, bound) + widen)


def nodes_ok(node_count: int, n: int) -> bool:
    return node_count == n


def norms_ok(closed: float, quadrature: float) -> bool:
    return rel_gap(closed, quadrature) <= NORM_TOL


def closed_ok(e_package: float, e_reference: float) -> bool:
    return rel_gap(e_package, e_reference) <= CLOSED_TOL


def table_ok(e_closed: float, printed: float) -> bool:
    return abs(e_closed - printed) <= TABLE_TOL


def mirror_ok(e: float, e_mirror: float) -> bool:
    return abs(e - e_mirror) <= MIRROR_ULPS * math.ulp(e)


def density_integral(r: np.ndarray, density: np.ndarray) -> float:
    """Simpson's rule for the integral of density dr on a geometric grid.

    In x = ln r the grid is uniform and the integrand is density * r.
    Needs an odd number of points.
    """
    f = density * r
    h = math.log(r[-1] / r[0]) / (len(r) - 1)
    return h / 3.0 * float(f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def density_ok(integral: float) -> bool:
    return abs(integral - 1.0) <= DENSITY_TOL
