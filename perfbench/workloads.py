"""The four workloads: inputs made from a seed, one operation, its checks, its metrics.

A run repeats whole rounds of operations.  Each operation returns an
``Outcome``; its wall time is measured by the caller.  Every workload reports
the same seven end-to-end metrics, computed from its outcomes the same way:

* states_per_s  -- states computed and checked per second of operation time;
* state_ms_p50/p90 -- wall time per state, an operation's time shared evenly
  among the states it produced;
* oracle_digits -- -log10 of the worst relative gap in a round between the
  package's answers and the independent reference they are checked against
  (the finite-difference oracle against the closed form on the oracle
  workloads), the median over the run's rounds.  A worst case over a whole
  run would grow with the number of rounds, and so with machine speed;
* cli_run_s     -- median time of one operation (one in-process
  ``manning-rosen`` request on ``cli`` and ``oracle_table``).

Times of the calibrated workloads are in the worker's reference seconds (see
worker.py), the others' in wall seconds.
"""

import contextlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass

import checks as ck

# smallest relative gap oracle_digits resolves; keeps the figure finite
GAP_FLOOR = 2.0 ** -52


@dataclass
class Outcome:
    ok: bool
    states: int = 0
    gap: float | None = None  # worst relative gap to the independent reference
    note: str = ""
    seconds: float = 0.0  # time of the operation, set by the caller
    fault: bool = False  # a named program fault; counted as failed, not as wrong
    round: int = 0  # index of the round the operation belongs to, set by the caller


@dataclass(frozen=True)
class Group:
    """One (1/b, alpha column, D) block of the paper's table."""

    inv_b: float
    alpha_label: str
    alpha: float
    D: int
    labels: tuple[str, ...]

    @property
    def b(self) -> float:
        return 1.0 / self.inv_b

    def __str__(self):
        return f"1/b={self.inv_b} alpha={self.alpha_label} D={self.D}"


@dataclass(frozen=True)
class Channel:
    """Ground state of one (A, alpha, b, D, l) channel."""

    A: float
    alpha: float
    b: float
    D: int
    l: int
    n: int = 0
    fault: bool = False

    def __str__(self):
        return (f"D={self.D} {ck.state_label(self.n, self.l)} alpha={self.alpha:.6g} "
                f"A/b={self.A / self.b:.6g} 1/b={1.0 / self.b:.6g}")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]  # starts with the subcommand
    cell: tuple = ()  # (label, 1/b, D, alpha column, alpha) the command is about

    def __str__(self):
        return "manning-rosen " + " ".join(self.argv)


class PaperTable:
    """The paper's printed table, read from the package's transcription of it."""

    def __init__(self, mr):
        self.printed: dict[tuple, float] = {}
        self.cells: list[tuple] = []
        groups: dict[tuple, list[str]] = {}
        for cell in mr.reference.iter_reference_cells():
            key = (cell.label, cell.inv_b, cell.D, cell.alpha_label)
            self.printed[key] = cell.reference_energy
            self.cells.append((cell.label, cell.inv_b, cell.D, cell.alpha_label, cell.alpha))
            groups.setdefault((cell.inv_b, cell.alpha_label, cell.alpha, cell.D),
                              []).append(cell.label)
        self.groups = [Group(inv_b, label, alpha, D, tuple(labels))
                       for (inv_b, label, alpha, D), labels in groups.items()]
        self.alpha_of = {label: alpha for _, _, _, label, alpha in self.cells}

    def check(self, key: tuple, e_closed: float, partner_energy) -> list[str]:
        """Problems with a closed-form value of the printed cell ``key``.

        Misprinted cells are checked by bit-equality with their degenerate
        partner, computed by ``partner_energy(label, D)``, and against the
        partner's printed value where that is not itself a misprint.
        """
        partner = ck.MISPRINTS.get(key)
        if partner is None:
            if not ck.table_ok(e_closed, self.printed[key]):
                return [f"{key}: {e_closed!r} vs printed {self.printed[key]!r}"]
            return []
        problems = []
        e_partner = partner_energy(partner[0], partner[2])
        if e_partner != e_closed:
            problems.append(f"{key}: {e_closed!r} not bit-equal to partner {e_partner!r}")
        if partner not in ck.MISPRINTS and not ck.table_ok(e_closed, self.printed[partner]):
            problems.append(f"{key}: {e_closed!r} vs partner printed {self.printed[partner]!r}")
        return problems


def run_main(mr, argv) -> tuple[int, str]:
    """In-process ``manning-rosen`` call; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mr.cli.main(list(argv))
    return code, out.getvalue()


def _per_state_ms(outcomes) -> list[float]:
    times = []
    for outcome in outcomes:
        if outcome.states:
            times.extend([1e3 * outcome.seconds / outcome.states] * outcome.states)
    return times


class Workload:
    name = ""
    # time operations in the worker's reference seconds (see worker.py), not in
    # wall seconds.  The oracle workloads are timed in wall seconds: their solves
    # run in LAPACK on grids of up to 128001 points, which the machine's slow
    # phases slow less than they slow the calibration, so scaling made their
    # spread from run to run wider, not narrower.
    calibrated = True

    def __init__(self, mr, seed: int):
        self.mr = mr
        self.seed = seed

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def round(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op) -> Outcome:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run(self.round(0)[0])

    def metrics(self, outcomes) -> dict[str, float]:
        busy = sum(outcome.seconds for outcome in outcomes)
        per_state = _per_state_ms(outcomes)
        deciles = statistics.quantiles(per_state, n=10)
        worst: dict[int, float] = {}
        for outcome in outcomes:
            if outcome.gap is not None:
                worst[outcome.round] = max(worst.get(outcome.round, 0.0), outcome.gap)
        return {
            "states_per_s": sum(outcome.states for outcome in outcomes) / busy,
            "state_ms_p50": statistics.median(per_state),
            "state_ms_p90": deciles[-1],
            "oracle_digits": -math.log10(max(statistics.median(worst.values()), GAP_FLOOR)),
            "cli_run_s": statistics.median(outcome.seconds for outcome in outcomes),
        }


class OracleTable(Workload):
    """The paper's whole table checked by the oracle, as a user would do it:
    24 ``oracle --mode approx --format json`` requests, one per table group."""

    name = "oracle_table"
    calibrated = False

    def __init__(self, mr, seed):
        super().__init__(mr, seed)
        self.table = PaperTable(mr)

    def round(self, index):
        return self.table.groups

    def warm_up(self):
        self.run(min(self.table.groups, key=lambda group: (len(group.labels), -group.D)))

    def run(self, group: Group) -> Outcome:
        mr, b = self.mr, group.b
        argv = ("oracle", "--inv-b", repr(group.inv_b), "--A-over-b", "2",
                "--alpha", repr(group.alpha), "--dim", str(group.D),
                "--states", ",".join(group.labels), "--mode", "approx", "--format", "json")
        code, out = run_main(mr, argv)
        if code != 0:
            return Outcome(ok=False, note=f"{group}: exit code {code}")
        records = json.loads(out)
        problems = []
        if sorted(record["label"] for record in records) != sorted(group.labels):
            problems.append(f"{group}: states {[r['label'] for r in records]}")
        params = mr.PotentialParams(A=2.0 * b, alpha=group.alpha, b=b)

        def partner_energy(label, D):
            n, l = ck.parse_label(label)
            return mr.energy(params, mr.QuantumState(n=n, l=l, D=D)).energy

        worst = 0.0
        for record in records:
            n, l = ck.parse_label(record["label"])
            e_ref = ck.closed_energy(2.0 * b, group.alpha, b, n, l, group.D)
            if record.get("status") != "ok" or e_ref is None:
                problems.append(f"{group} {record['label']}: status {record.get('status')}")
                continue
            gap = ck.rel_gap(record["approx"], e_ref)
            worst = max(worst, gap)
            if not ck.oracle_ok(record["approx"], e_ref):
                problems.append(f"{group} {record['label']}: oracle gap {gap:.2e}")
            if not ck.closed_ok(record["closed"], e_ref):
                problems.append(f"{group} {record['label']}: closed {record['closed']!r} "
                                f"vs {e_ref!r}")
            key = (record["label"], group.inv_b, group.D, group.alpha_label)
            problems += self.table.check(key, record["closed"], partner_energy)
        return Outcome(ok=not problems, states=len(records), gap=worst,
                       note="; ".join(problems))


# (D, l) pairs of the drawn channels; D 2-6 and l 0-3 as in the paper's scope
PAIRS = tuple((D, l) for D in range(2, 7) for l in range(4))
AUDIT_PAIRS = tuple((D, l) for D, l in PAIRS if D + 2 * l - 2 >= 2)
# the uniform 3-point grid does not converge for these q < 2 channels
AUDIT_FAULTS = (Channel(A=80.0, alpha=0.0, b=40.0, D=2, l=0, fault=True),
                Channel(A=80.0, alpha=0.75, b=40.0, D=3, l=0, fault=True))


def draw_channel(rng: random.Random) -> tuple[float, float, float]:
    """(A, alpha, b) with alpha in [-1, 2], 1/b in [0.02, 0.1], A/b in [1.5, 3].

    alpha lies on a grid of 2^-20, so that 1 - alpha is exact and the mirror
    check compares the same (1 - 2 alpha)^2; a mirror that itself rounds moves
    ill-conditioned energies (q = 0, or near threshold) by tens of ulp.
    """
    alpha = round(rng.uniform(-1.0, 2.0) * 2.0 ** 20) / 2.0 ** 20
    b = 1.0 / rng.uniform(0.02, 0.1)
    return rng.uniform(1.5, 3.0) * b, alpha, b


class OracleAudit(Workload):
    """``approximation_audit`` (both centrifugal modes) on the ground state of one
    drawn channel per (D, l) pair with q >= 2, plus the two fault channels."""

    name = "oracle_audit"
    calibrated = False

    def round(self, index):
        rng = self.rng(index)
        channels = []
        for D, l in AUDIT_PAIRS:
            while True:
                A, alpha, b = draw_channel(rng)
                e = ck.closed_energy(A, alpha, b, 0, l, D)
                # bound under the exact barrier too: E + max(0, B) < 0
                if e is not None and e + max(0.0, ck.barrier_bound(D + 2 * l - 2, b)) < 0.0:
                    channels.append(Channel(A=A, alpha=alpha, b=b, D=D, l=l))
                    break
        return channels + list(AUDIT_FAULTS)

    def run(self, channel: Channel) -> Outcome:
        mr = self.mr
        params = mr.PotentialParams(A=channel.A, alpha=channel.alpha, b=channel.b)
        audit = mr.approximation_audit(
            params, mr.QuantumState(n=channel.n, l=channel.l, D=channel.D))
        e_ref = ck.closed_energy(channel.A, channel.alpha, channel.b,
                                 channel.n, channel.l, channel.D)
        bound = ck.barrier_bound(channel.D + 2 * channel.l - 2, channel.b)
        gap = ck.rel_gap(audit.e_approx, e_ref)
        problems = []
        if not ck.closed_ok(audit.e_closed, e_ref):
            problems.append(f"closed {audit.e_closed!r} vs {e_ref!r}")
        if not ck.oracle_ok(audit.e_approx, e_ref):
            problems.append(f"approx gap {gap:.2e}")
        if not ck.bracket_ok(audit.e_exact, e_ref, bound):
            problems.append(f"exact {audit.e_exact!r} outside [E+min(0,B), E+max(0,B)], "
                            f"E={e_ref!r} B={bound!r}")
        note = f"{channel}: " + "; ".join(problems) if problems else ""
        return Outcome(ok=not problems, states=1, gap=gap, note=note)


# closed_form: channels per (D, l) pair and round, states up to this n
CHANNELS_PER_PAIR = 2
N_MAX = 8
SAMPLES = 1001
R_MIN = 1e-10  # in units of b; below it |g|^2 holds < 1e-8 of the norm
# Left out, both for faults that show only on some draws (see CHANGES.md):
# * channels with eta < 0 (q <= 1 and (1 - 2 alpha)^2 + q^2 - 1 < 1, which takes
#   in the q = 0, |1 - 2 alpha| < 1 channels that have no real eta at all): the
#   norm quadrature climbs to order 2048-4096 there and fails to converge at
#   large eps;
# * states with eps < EPS_MIN: the package evaluates g at z = exp(-r/b), which
#   underflows to 0 past r ~ 745 b, so the sampled tail of a state with eps
#   below about 0.015 is missing; 0.05 keeps that tail below 1e-30.
EPS_MIN = 0.05
# warm-up state: its norm quadrature builds every rule (orders 64..1024) the
# kept states use, so no rule is built inside the timed rounds
WARM_UP = dict(A=100.0, alpha=-0.2, b=40.0, n=0, l=0, D=3)


@dataclass(frozen=True)
class StateCase:
    A: float
    alpha: float
    b: float
    n: int
    l: int
    D: int

    def __str__(self):
        return (f"D={self.D} n={self.n} l={self.l} alpha={self.alpha!r} "
                f"A={self.A!r} b={self.b!r}")


class ClosedForm(Workload):
    """Every bound state up to n = 8 of drawn channels: energy, wavefunction,
    quadrature normalization and sampling, no oracle."""

    name = "closed_form"

    def round(self, index):
        rng = self.rng(index)
        cases = []
        for D, l in PAIRS:
            q = D + 2 * l - 2
            for _ in range(CHANNELS_PER_PAIR):
                while True:
                    A, alpha, b = draw_channel(rng)
                    if (1.0 - 2.0 * alpha) ** 2 + q * q - 1.0 >= 1.0:  # eta >= 0
                        break
                for n in range(N_MAX + 1):
                    if ck.epsilon(A, alpha, n, l, D) < EPS_MIN:
                        break
                    cases.append(StateCase(A=A, alpha=alpha, b=b, n=n, l=l, D=D))
        return cases

    def warm_up(self):
        self.run(StateCase(**WARM_UP))

    def run(self, case: StateCase) -> Outcome:
        mr = self.mr
        params = mr.PotentialParams(A=case.A, alpha=case.alpha, b=case.b)
        state = mr.QuantumState(n=case.n, l=case.l, D=case.D)
        entry = mr.energy(params, state)
        solution = mr.radial_wavefunction(params, state)
        quadrature = mr.normalization_quadrature(params, entry)
        table = solution.sample(SAMPLES, r_min=R_MIN * case.b)

        problems = []
        e_ref = ck.closed_energy(case.A, case.alpha, case.b, case.n, case.l, case.D)
        if not ck.closed_ok(entry.energy, e_ref):
            problems.append(f"energy {entry.energy!r} vs {e_ref!r}")
        if not ck.norms_ok(solution.norm_constant, quadrature):
            problems.append(f"norm {solution.norm_constant!r} vs quadrature {quadrature!r}")
        if not ck.nodes_ok(solution.node_count, case.n):
            problems.append(f"node count {solution.node_count}")
        partner = None
        if case.D >= 4:
            partner = mr.QuantumState(n=case.n, l=case.l + 1, D=case.D - 2)
        elif case.l >= 1:
            partner = mr.QuantumState(n=case.n, l=case.l - 1, D=case.D + 2)
        if partner is not None and mr.energy(params, partner).energy != entry.energy:
            problems.append(f"partner {partner} energy differs")
        mirror = mr.energy(mr.PotentialParams(A=case.A, alpha=1.0 - case.alpha, b=case.b),
                           state).energy
        if not ck.mirror_ok(entry.energy, mirror):
            problems.append(f"alpha -> 1 - alpha: {mirror!r} vs {entry.energy!r}")
        e_hulthen = ck.hulthen_energy(case.A, case.b, case.n, case.l, case.D)
        scale = ck.hulthen_scale(case.A, case.b, case.n, case.l, case.D)
        for alpha in (0.0, 1.0):
            try:
                e_alpha = mr.energy(mr.PotentialParams(A=case.A, alpha=alpha, b=case.b),
                                    state).energy
            except mr.UnboundStateError:
                e_alpha = None
            if (e_alpha is None) != (e_hulthen is None) or (
                    e_alpha is not None and abs(e_alpha - e_hulthen) > ck.CLOSED_TOL * scale):
                problems.append(f"alpha={alpha}: {e_alpha!r} vs Hulthen {e_hulthen!r}")
        density = ck.density_integral(table[:, 0], table[:, 3])
        if not ck.density_ok(density):
            problems.append(f"sampled |g|^2 integrates to {density!r}")
        gap = max(ck.rel_gap(solution.norm_constant, quadrature),
                  ck.rel_gap(entry.energy, e_ref), abs(density - 1.0))
        note = f"{case}: " + "; ".join(problems) if problems else ""
        return Outcome(ok=not problems, states=1, gap=gap, note=note)


class Cli(Workload):
    """In-process ``manning-rosen`` requests on the paper's parameters:
    spectrum, table, wavefunction, degeneracy, critical-coupling."""

    name = "cli"

    def __init__(self, mr, seed):
        super().__init__(mr, seed)
        self.table = PaperTable(mr)

    def round(self, index):
        rng = self.rng(index)
        inv_b = rng.choice(sorted({group.inv_b for group in self.table.groups}))
        column = rng.choice(sorted(self.table.alpha_of))
        alpha, dim = self.table.alpha_of[column], rng.choice((2, 4))
        physics = ("--inv-b", repr(inv_b), "--A-over-b", "2", "--alpha", repr(alpha))
        # every paper cell for the wavefunction and the critical coupling; for the
        # degeneracy those with D + 2l >= 8, which have exactly four partners in 2..8
        cell = rng.choice(self.table.cells)
        deg_cell = rng.choice([c for c in self.table.cells
                               if c[2] + 2 * ck.parse_label(c[0])[1] >= 8])
        crit_cell = rng.choice(self.table.cells)
        n, l = ck.parse_label(deg_cell[0])
        cn, cl = ck.parse_label(crit_cell[0])
        return [
            Invocation(("spectrum", *physics, "--dim", str(dim),
                        "--n", "0:5", "--l", "1:5", "--format", "json"),
                       cell=(None, inv_b, dim, column, alpha)),
            Invocation(("table", "--format", "json")),
            Invocation(("wavefunction", "--inv-b", repr(cell[1]), "--A-over-b", "2",
                        "--alpha", repr(cell[4]), "--dim", str(cell[2]),
                        "--states", cell[0], "--samples", "1000"), cell=cell),
            Invocation(("degeneracy", "--inv-b", repr(deg_cell[1]), "--A-over-b", "2",
                        "--alpha", repr(deg_cell[4]), "--dim", str(deg_cell[2]),
                        "--n", str(n), "--l", str(l), "--dmin", "2", "--dmax", "8",
                        "--format", "json"), cell=deg_cell),
            Invocation(("critical-coupling", "--n", str(cn), "--l", str(cl),
                        "--dim", str(crit_cell[2]), "--alpha", repr(crit_cell[4]),
                        "--format", "json"), cell=crit_cell),
        ]

    def warm_up(self):
        for invocation in self.round(0):  # each subcommand once
            self.run(invocation)

    def run(self, invocation: Invocation) -> Outcome:
        code, out = run_main(self.mr, invocation.argv)
        if code != 0:
            return Outcome(ok=False, note=f"{invocation}: exit code {code}")
        check = getattr(self, "_check_" + invocation.argv[0].replace("-", "_"))
        states, gaps, problems = check(invocation, out)
        note = f"{invocation}: " + "; ".join(problems) if problems else ""
        return Outcome(ok=not problems, states=states, gap=max(gaps) if gaps else None,
                       note=note)

    def _check_spectrum(self, invocation, out):
        _, inv_b, dim, column, alpha = invocation.cell
        b = 1.0 / inv_b
        mr = self.mr
        params = mr.PotentialParams(A=2.0 * b, alpha=alpha, b=b)

        def partner_energy(label, D):
            n, l = ck.parse_label(label)
            return mr.energy(params, mr.QuantumState(n=n, l=l, D=D)).energy

        records = json.loads(out)
        problems, gaps = [], []
        if len(records) != 30:
            problems.append(f"{len(records)} states listed, want 30")
        for record in records:
            n, l = record["n"], record["l"]
            e_ref = ck.closed_energy(2.0 * b, alpha, b, n, l, dim)
            bound = record["status"] == "bound"
            if bound != (e_ref is not None):
                problems.append(f"{record['label']}: status {record['status']}")
                continue
            if not bound:
                continue
            gaps.append(ck.rel_gap(record["energy"], e_ref))
            if not ck.closed_ok(record["energy"], e_ref):
                problems.append(f"{record['label']}: {record['energy']!r} vs {e_ref!r}")
            key = (record["label"], inv_b, dim, column)
            if key in self.table.printed:
                problems += self.table.check(key, record["energy"], partner_energy)
        return len(records), gaps, problems

    def _check_table(self, invocation, out):
        payload = json.loads(out)
        flagged = {key for key, item in payload.items() if item["suspect"]}
        want = {f"{label},{inv_b:.3f},{column},{D}" for label, inv_b, D, column in ck.MISPRINTS}
        problems = [] if flagged == want else [f"flagged {sorted(flagged)}"]
        gaps = []
        for label, inv_b, D, column, alpha in self.table.cells:
            item = payload.get(f"{label},{inv_b:.3f},{column},{D}")
            if item is None:
                problems.append(f"cell {label} 1/b={inv_b} D={D} alpha={column} missing")
                continue
            n, l = ck.parse_label(label)
            e_ref = ck.closed_energy(2.0 / inv_b, alpha, 1.0 / inv_b, n, l, D)
            gaps.append(ck.rel_gap(item["computed"], e_ref))
            if not ck.closed_ok(item["computed"], e_ref):
                problems.append(f"{label} 1/b={inv_b} D={D}: {item['computed']!r} vs {e_ref!r}")
        return len(payload), gaps, problems

    def _check_wavefunction(self, invocation, out):
        label = invocation.cell[0]
        n, _ = ck.parse_label(label)
        lines = out.splitlines()
        norm = next((float(line.split("=", 1)[1]) for line in lines
                     if line.startswith("# norm=")), math.nan)
        nodes = next((int(line.split("=", 1)[1]) for line in lines
                      if line.startswith("# node_count=")), -1)
        problems = []
        if not abs(norm - 1.0) <= ck.NORM_TOL:
            problems.append(f"norm line {norm!r}")
        if not ck.nodes_ok(nodes, n):
            problems.append(f"node count {nodes}, want {n}")
        if len(lines) != 1000 + 3:
            problems.append(f"{len(lines)} lines, want 1000 samples + header + 2 notes")
        return 1, [], problems

    def _check_degeneracy(self, invocation, out):
        label, inv_b, D, _, alpha = invocation.cell
        n, l = ck.parse_label(label)
        payload = json.loads(out)
        listed = {(p["n"], p["l"], p["D"]) for p in payload["partners"]}
        want = {(n, (D + 2 * l - d) // 2, d) for d in range(2, 9)
                if D + 2 * l - d >= 0 and (D + 2 * l - d) % 2 == 0}
        problems = [] if listed == want else [f"partners {sorted(listed)}, want {sorted(want)}"]
        if any(p["status"] != "bound" for p in payload["partners"]):
            problems.append("a partner is not bound")
        e_ref = ck.closed_energy(2.0 / inv_b, alpha, 1.0 / inv_b, n, l, D)
        gaps = [ck.rel_gap(payload["energy"], e_ref)]
        if not ck.closed_ok(payload["energy"], e_ref):
            problems.append(f"shared energy {payload['energy']!r} vs {e_ref!r}")
        return len(listed), gaps, problems

    def _check_critical_coupling(self, invocation, out):
        label, _, D, _, alpha = invocation.cell
        n, l = ck.parse_label(label)
        a_c = json.loads(out)["A_c"]
        problems = []
        if not ck.epsilon(a_c * (1.0 + 1e-9), alpha, n, l, D) > 0.0:
            problems.append(f"not bound just above A_c={a_c!r}")
        if not ck.epsilon(a_c * (1.0 - 1e-9), alpha, n, l, D) < 0.0:
            problems.append(f"bound just below A_c={a_c!r}")
        return 1, [], problems


WORKLOADS = {cls.name: cls for cls in (OracleTable, OracleAudit, ClosedForm, Cli)}
