"""Closed-form bound-state spectrum of the D-dimensional Manning-Rosen problem.

With q = D + 2l - 2 and the shape parameters

    a   = sqrt((1 - 2 alpha)^2 + q^2 - 1),      eta = (a - 1)/2,
    eps = [4A + 1 - 4(n+1)^2 - q^2 - 4(2n+1) eta] / [8 (n + 1 + eta)],

a state is bound exactly when eps > 0, and then

    E = -hbar^2 eps^2 / (2 mu b^2).

Everything is keyed on q, so states with equal D + 2l are bit-identically
degenerate, and alpha enters only through (1 - 2 alpha)^2, so the spectrum
is invariant under alpha -> 1 - alpha.
"""

import math
import re
from dataclasses import dataclass

from .errors import DomainError, LabelError, UnboundStateError
from .model import PotentialParams, QuantumState

__all__ = [
    "SpectrumEntry",
    "shape_parameter",
    "epsilon_parameter",
    "energy",
    "bound_states",
    "critical_coupling",
    "degenerate_partners",
    "hulthen_energy",
    "screened_coulomb_coupling",
    "coulomb_limit_energy",
    "parse_spectroscopic",
    "state_label",
]

_ORBITAL_LETTERS = "spdfgh"
_LABEL_RE = re.compile(r"^(\d+)([a-z])$")
# The smallest normal float, sys.float_info.min: an energy below it in size
# keeps only some of its significant bits.
_NORMAL_MIN = math.ldexp(1.0, -1022)


@dataclass(frozen=True)
class SpectrumEntry:
    """One bound state: energy plus the intermediate shape parameters."""

    state: QuantumState
    energy: float
    a_param: float
    eta: float
    epsilon: float


def _shape(alpha: float, q: int) -> tuple[float, float]:
    """Shape parameter a and eta = (a - 1)/2."""
    t = 1.0 - 2.0 * alpha
    radicand = t * t + q * q - 1.0
    if radicand < 0.0:
        raise DomainError(
            f"shape parameter undefined: (1-2*alpha)^2 + q^2 - 1 < 0 "
            f"for alpha={alpha}, q={q} (D + 2l - 2)"
        )
    a = math.sqrt(radicand)
    return a, 0.5 * (a - 1.0)


def _epsilon(A: float, alpha: float, n: int, q: int) -> tuple[float, float, float]:
    """Signed energy parameter eps (positive means bound), with eta and a."""
    a, eta = _shape(alpha, q)
    eps = (4.0 * A + 1.0 - 4.0 * (n + 1) ** 2 - q * q - 4.0 * (2 * n + 1) * eta) / (
        8.0 * (n + 1 + eta)
    )
    return eps, eta, a


def shape_parameter(params: PotentialParams, state: QuantumState) -> float:
    """a = sqrt((1-2 alpha)^2 + (D+2l-2)^2 - 1), the non-negative root."""
    return _shape(params.alpha, state.q)[0]


def epsilon_parameter(params: PotentialParams, state: QuantumState) -> float:
    """Signed dimensionless energy parameter; the state is bound iff > 0."""
    return _epsilon(params.A, params.alpha, state.n, state.q)[0]


def energy(params: PotentialParams, state: QuantumState) -> SpectrumEntry:
    """Discrete energy of a bound state.

    Raises :class:`UnboundStateError` (carrying the computed eps) when the
    state is not bound, which happens for large n or weak coupling, and
    :class:`DomainError` when E is not a finite float (for example b so small
    that b^2 underflows), is subnormal, keeping only some of its significant
    bits, or rounds to 0 (b so large that b^2 overflows).
    """
    eps, eta, a = _epsilon(params.A, params.alpha, state.n, state.q)
    if eps <= 0.0:
        raise UnboundStateError(
            f"state {state} is not bound for A={params.A}, alpha={params.alpha} "
            f"(epsilon={eps:.6g} <= 0)",
            epsilon=eps,
        )
    denominator = 2.0 * params.mu * params.b * params.b
    # a denominator that underflowed to 0 stands for an infinite |E|
    e_value = -(params.hbar * params.hbar * eps * eps) / denominator if denominator else -math.inf
    return SpectrumEntry(state=state, energy=_normal_energy(e_value, state, params), a_param=a,
                         eta=eta, epsilon=eps)


def _normal_energy(e_value: float, state: QuantumState, source: object) -> float:
    """``e_value``, or :class:`DomainError`, naming ``source``, where it is not a normal float."""
    if not _NORMAL_MIN <= abs(e_value) < math.inf:
        what = ("rounds to 0" if e_value == 0.0 else "is subnormal" if math.isfinite(e_value)
                else "is not a finite float")
        raise DomainError(f"energy of {state} {what} for {source}")
    return e_value


def bound_states(params: PotentialParams, D: int, l: int,
                 n_max: int | None = None) -> list[SpectrumEntry]:
    """All bound states for fixed (l, D), enumerating n upward until unbound.

    eps decreases strictly with n, so the first unbound n terminates the
    scan.  ``n_max`` caps the enumeration when given.
    """
    out: list[SpectrumEntry] = []
    n = 0
    while n_max is None or n <= n_max:
        state = QuantumState(n=n, l=l, D=D)
        try:
            out.append(energy(params, state))
        except UnboundStateError:
            break
        n += 1
    return out


def critical_coupling(state: QuantumState, alpha: float) -> float:
    """Coupling A_c at which the state's binding energy reaches zero.

    A_c = (n+1+eta)^2 - eta(eta+1) + q^2/4 - 1/4; for A = A_c the energy
    parameter eps vanishes identically.  Raises :class:`DomainError` when
    A_c is not a finite float, as for a non-finite or huge alpha.
    """
    eta = _shape(alpha, state.q)[1]
    a_critical = (state.n + 1 + eta) ** 2 - eta * (eta + 1.0) + 0.25 * state.q * state.q - 0.25
    if not math.isfinite(a_critical):
        raise DomainError(f"critical coupling of {state} is not a finite float "
                          f"for alpha={alpha}")
    return a_critical


def degenerate_partners(state: QuantumState, d_min: int, d_max: int) -> list[QuantumState]:
    """All states (n, l', D') with D' + 2l' = D + 2l and d_min <= D' <= d_max.

    These share the energy of ``state`` exactly (the spectrum depends on
    (l, D) only through q).  Output is sorted by ascending D' and includes
    the input state when it lies in range.  Raises :class:`DomainError`
    unless 2 <= d_min <= d_max.
    """
    if not 2 <= d_min <= d_max:
        raise DomainError(f"need 2 <= d_min <= d_max, got d_min={d_min}, d_max={d_max}")
    total = state.D + 2 * state.l
    partners = []
    for d_prime in range(d_min, d_max + 1):
        remainder = total - d_prime
        if remainder >= 0 and remainder % 2 == 0:
            partners.append(QuantumState(n=state.n, l=remainder // 2, D=d_prime))
    return partners


def hulthen_energy(state: QuantumState, A: float, b: float,
                   mu: float = 1.0, hbar: float = 1.0) -> float:
    """Bound-state energy of the screened-Coulomb (alpha = 0 or 1) limit.

    E = -hbar^2 [4A - M^2]^2 / (32 mu b^2 M^2) with M = 2n + D + 2l - 1;
    bound only when 4A > M^2.  Identical to ``energy`` at alpha in {0, 1},
    where eta = (D + 2l - 3)/2, and raises :class:`DomainError` where it
    does: for A, b, mu or hbar that ``PotentialParams`` refuses, and for an E
    that is not a normal float.
    """
    params = PotentialParams(A=A, alpha=0.0, b=b, mu=mu, hbar=hbar)
    m_sum = 2 * state.n + state.D + 2 * state.l - 1
    eps = (4.0 * A - m_sum * m_sum) / (4.0 * m_sum)
    if eps <= 0.0:
        raise UnboundStateError(
            f"state {state} is not bound for A={A} (needs 4A > {m_sum}^2)",
            epsilon=eps,
        )
    denominator = 32.0 * mu * b * b * m_sum * m_sum
    try:  # a float ** raises OverflowError where * would give inf
        square = (4.0 * A - m_sum * m_sum) ** 2
    except OverflowError:
        square = math.inf
    # a denominator that underflowed to 0 stands for an infinite |E|
    e_value = -(hbar * hbar * square) / denominator if denominator else -math.inf
    return _normal_energy(e_value, state, params)


def screened_coulomb_coupling(Z: float, delta: float,
                              mu: float = 1.0, hbar: float = 1.0,
                              e_sq: float = 1.0) -> tuple[float, float]:
    """Map a screened-Coulomb potential -Z e^2 delta exp(-delta r)/(1-exp(-delta r))
    onto (A, b): b = 1/delta and A = 2 mu Z e^2 b / hbar^2.

    Feeding the result to ``hulthen_energy`` recovers the hydrogen spectrum
    as delta -> 0.  Raises :class:`DomainError` where b is not a normal
    float or A is not a finite float.
    """
    if delta <= 0.0:
        raise DomainError(f"screening delta must be positive, got {delta}")
    b = 1.0 / delta
    A = 2.0 * mu * Z * e_sq * b / (hbar * hbar)
    if not (_NORMAL_MIN <= b < math.inf and math.isfinite(A)):
        raise DomainError(f"(A, b) = ({A}, {b}) for delta={delta}: need a normal float b "
                          "and a finite float A")
    return A, b


def coulomb_limit_energy(state: QuantumState, Z: float,
                         mu: float = 1.0, hbar: float = 1.0,
                         e_sq: float = 1.0) -> float:
    """Pure-Coulomb limit: E = -4 eps0 / (2n + D + 2l - 1)^2.

    eps0 = Z^2 hbar^2 / (2 mu a0^2) with the Bohr radius a0 = hbar^2/(mu e^2);
    in atomic units the D = 3 ground state gives -Z^2/2.  Raises
    :class:`DomainError` where E is not a normal float, as ``energy`` does.
    """
    if Z <= 0.0:
        raise DomainError(f"Z must be positive, got {Z}")
    a0 = hbar * hbar / (mu * e_sq)
    eps0 = Z * Z * hbar * hbar / (2.0 * mu * a0 * a0)
    m_sum = 2 * state.n + state.D + 2 * state.l - 1
    return _normal_energy(-4.0 * eps0 / (m_sum * m_sum), state,
                          f"Z={Z}, mu={mu}, hbar={hbar}, e_sq={e_sq}")


def parse_spectroscopic(label: str) -> tuple[int, int]:
    """Parse an 'Nx' label (2p, 3d, ...) into (n, l) with n = N - l - 1.

    Letters s, p, d, f, g, h map to l = 0..5; requires N >= l + 1.
    """
    match = _LABEL_RE.match(label.strip().lower())
    if not match:
        raise LabelError(f"malformed spectroscopic label: {label!r}")
    big_n = int(match.group(1))
    letter = match.group(2)
    if big_n < 1 or letter not in _ORBITAL_LETTERS:
        raise LabelError(f"malformed spectroscopic label: {label!r}")
    l = _ORBITAL_LETTERS.index(letter)
    n = big_n - l - 1
    if n < 0:
        raise LabelError(f"label {label!r} requires N >= l + 1 (N={big_n}, l={l})")
    return n, l


def state_label(n: int, l: int) -> str:
    """Inverse of ``parse_spectroscopic``; falls back to 'N[l=..]' past l = 5."""
    big_n = n + l + 1
    if 0 <= l < len(_ORBITAL_LETTERS):
        return f"{big_n}{_ORBITAL_LETTERS[l]}"
    return f"{big_n}[l={l}]"
