"""Published reference eigenvalues for the A = 2b family (atomic units).

The reference table lists eigenvalues for states 2p .. 6g at screening
values 1/b in {0.025, 0.050, 0.075, 0.100}, in D = 2 and D = 4, for three
shape-parameter columns: alpha = 0.75, alpha in {0, 1} (one column, the two
values coincide by the alpha -> 1-alpha symmetry), and alpha = 1.5.

``audit_reference_table`` recomputes every cell from the closed form and
flags cells whose deviation exceeds the agreement threshold as suspected
misprints.  The closed form depends on (l, D) only through q = D + 2l - 2,
so the D = 4, l cell and the D = 2, l + 1 cell of a column share one value
(45 of the 168 cells repeat another's); the audit evaluates each distinct
(1/b, alpha, n, q) once, 123 ``energy`` calls, and gives that float to
every cell that shares it.

Four cells fail the audit: (6d, D=2, alpha=0.75), whose printed value also
breaks the monotone ordering of the 6p..6g block, and the whole 5p D=4 row,
whose printed values contradict the table's own degeneracy with the 6d D=2
row (equal D + 2l) and, in the alpha = 0,1 column, the equality with
5d/5f/5g D=4 (equal 2n + D + 2l - 1).
"""

from dataclasses import dataclass

from .model import PotentialParams, QuantumState, _combined_index
from .spectrum import energy, parse_spectroscopic

__all__ = [
    "ALPHA_COLUMNS",
    "ReferenceCell",
    "AuditCell",
    "iter_reference_cells",
    "audit_reference_table",
    "AGREEMENT_THRESHOLD",
]

# |computed - reference| threshold separating rounding from misprints.
AGREEMENT_THRESHOLD = 5e-9

# Column labels and the alpha actually used to recompute each column.
ALPHA_COLUMNS: tuple[tuple[str, float], ...] = (
    ("0.75", 0.75),
    ("0,1", 0.0),
    ("1.5", 1.5),
)

# (label, 1/b, (D=2 energies for the three columns), (D=4 energies likewise))
_ROWS: tuple[tuple[str, float, tuple[float, float, float], tuple[float, float, float]], ...] = (
    ("2p", 0.025, (-0.241087728, -0.209898003, -0.140949065),
                  (-0.070734690, -0.067988281, -0.058898861)),
    ("2p", 0.050, (-0.227946676, -0.197925347, -0.131737328),
                  (-0.059344084, -0.056953125, -0.049054156)),
    ("2p", 0.075, (-0.215173874, -0.186304253, -0.122836866),
                  (-0.048952839, -0.046894531, -0.040109106)),
    ("2p", 0.100, (-0.202769319, -0.175034722, -0.114247678),
                  (-0.039560954, -0.037812500, -0.032063712)),
    ("3p", 0.025, (-0.074279113, -0.067988281, -0.051933432),
                  (-0.030209821, -0.029273358, -0.026068346)),
    ("3p", 0.050, (-0.062813564, -0.056953125, -0.042142549),
                  (-0.020395577, -0.019644452, -0.017092049)),
    ("3p", 0.075, (-0.052308602, -0.046894531, -0.033373420),
                  (-0.012502916, -0.011929608, -0.010003237)),
    ("3p", 0.100, (-0.042764227, -0.037812500, -0.025626042),
                  (-0.006531840, -0.006128827, -0.004801908)),
    ("3d", 0.025, (-0.070734690, -0.067988281, -0.058898861),
                  (-0.029833656, -0.029273358, -0.027228277)),
    ("3d", 0.050, (-0.059344084, -0.056953125, -0.049054156),
                  (-0.020047209, -0.019644452, -0.018176769)),
    ("3d", 0.075, (-0.048952839, -0.046894531, -0.040109106),
                  (-0.012199670, -0.011929608, -0.010947973)),
    ("4p", 0.025, (-0.031448122, -0.029273358, -0.023381941),
                  (-0.014180352, -0.013773389, -0.012357598)),
    ("4p", 0.050, (-0.021545731, -0.019644452, -0.014606136),
                  (-0.006296995, -0.006019483, -0.005072360)),
    ("4p", 0.075, (-0.013510134, -0.011929608, -0.007885467),
                  (-0.001570215, -0.001429639, -0.000978205)),
    ("4d", 0.025, (-0.030209821, -0.029273358, -0.026068346),
                  (-0.014011823, -0.013773389, -0.012892982)),
    ("4d", 0.050, (-0.020395577, -0.019644452, -0.017092049),
                  (-0.006162813, -0.006019483, -0.005494347)),
    ("4d", 0.075, (-0.012502916, -0.011929608, -0.010003237),
                  (-0.001492711, -0.001429639, -0.001204122)),
    ("4f", 0.025, (-0.029833656, -0.029273358, -0.027228277),
                  (-0.013929374, -0.013773389, -0.013182139)),
    ("4f", 0.050, (-0.020047209, -0.019644452, -0.018176769),
                  (-0.006097355, -0.006019483, -0.005724889)),
    ("4f", 0.075, (-0.012199670, -0.011929608, -0.010947973),
                  (-0.001455297, -0.001429639, -0.001333163)),
    ("5p", 0.025, (-0.014732070, -0.013773389, -0.011100961),
                  (-0.007127957, -0.006916484, -0.006175251)),
    ("5d", 0.025, (-0.014180352, -0.013773389, -0.012357598),
                  (-0.006506751, -0.006392207, -0.005967020)),
    ("5f", 0.025, (-0.014011823, -0.013773389, -0.012892982),
                  (-0.006465489, -0.006392207, -0.006113207)),
    ("5g", 0.025, (-0.013929374, -0.013773389, -0.013182139),
                  (-0.006440958, -0.006392207, -0.006204004)),
    ("6p", 0.025, (-0.006866319, -0.006392207, -0.005056211),
                  (-0.002734814, -0.002635101, -0.002286461)),
    ("6d", 0.025, (-0.005435481, -0.006392207, -0.005695750),
                  (-0.002691847, -0.002635101, -0.002424502)),
    ("6f", 0.025, (-0.006506751, -0.006392207, -0.005967020),
                  (-0.002670817, -0.002635101, -0.002499036)),
    ("6g", 0.025, (-0.006465489, -0.006392207, -0.006113207),
                  (-0.002658317, -0.002635101, -0.002545374)),
)


@dataclass(frozen=True)
class ReferenceCell:
    """One published eigenvalue with its table coordinates."""

    label: str
    inv_b: float
    D: int
    alpha_label: str
    alpha: float
    reference_energy: float


@dataclass(frozen=True)
class AuditCell:
    """A reference cell recomputed from the closed form."""

    cell: ReferenceCell
    computed_energy: float
    deviation: float
    suspect: bool


def iter_reference_cells():
    """All published cells in deterministic table order."""
    for label, inv_b, d2_values, d4_values in _ROWS:
        for d, values in ((2, d2_values), (4, d4_values)):
            for (alpha_label, alpha), ref in zip(ALPHA_COLUMNS, values):
                yield ReferenceCell(label=label, inv_b=inv_b, D=d,
                                    alpha_label=alpha_label, alpha=alpha,
                                    reference_energy=ref)


def audit_reference_table() -> list[AuditCell]:
    """Recompute every published cell and flag suspected misprints.

    A cell is suspect when |computed - reference| > AGREEMENT_THRESHOLD; the
    closed form reproduces all remaining cells to their printed precision.
    Each (1/b, alpha) column builds its ``PotentialParams`` once and each
    label is parsed once.  ``energy`` runs once per distinct (column, n, q):
    degenerate partners such as (n, l, D = 4) and (n, l + 1, D = 2) share
    one call, so their computed energies are bit-equal by construction.
    """
    columns: dict[tuple[float, float], PotentialParams] = {}
    labels: dict[str, tuple[int, int]] = {}
    energies: dict[tuple[float, float, int, int], float] = {}
    out: list[AuditCell] = []
    for cell in iter_reference_cells():
        column = (cell.inv_b, cell.alpha)
        if column not in columns:
            b = 1.0 / cell.inv_b
            columns[column] = PotentialParams(A=2.0 * b, alpha=cell.alpha, b=b)
        if cell.label not in labels:
            labels[cell.label] = parse_spectroscopic(cell.label)
        n, l = labels[cell.label]
        key = (*column, n, _combined_index(cell.D, l))
        if key not in energies:
            energies[key] = energy(columns[column], QuantumState(n=n, l=l, D=cell.D)).energy
        computed = energies[key]
        deviation = abs(computed - cell.reference_energy)
        out.append(AuditCell(cell=cell, computed_energy=computed,
                             deviation=deviation, suspect=deviation > AGREEMENT_THRESHOLD))
    return out
