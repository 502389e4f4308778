"""Command-line front end: spectra, reference-table audit, wavefunction dumps,
oracle comparisons, and degeneracy listings.

Exit codes are stable: 0 success, 2 usage error, 3 unbound state,
4 solver failure.  Identical flags produce byte-identical output.
Each subcommand returns a :class:`Report`; ``main`` renders and writes it.
A report carries only the format it renders: a JSON request builds the
payload and formats no text cell, and a text or csv request builds its
rows and no payload.
A process builds the argument parser once and never modifies it: a
``--config`` file's values become ``--flag=value`` tokens after the
subcommand, so each request is parsed once and argparse enforces every
required and either-or flag, from the file or typed.  Only the ``oracle``
subcommand imports SciPy.
"""

import argparse
import csv
import functools
import io
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (ConvergenceError, DomainError, LabelError, NormalizationError,
                     UnboundStateError)
from .model import CentrifugalMode, PotentialParams, QuantumState
from .reference import audit_reference_table
from .spectrum import (_shape, critical_coupling, degenerate_partners, energy,
                       parse_spectroscopic, state_label)
from .wavefun import normalization_quadrature, radial_wavefunction

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNBOUND = 3
EXIT_SOLVER = 4

_FORMATS = ("text", "csv", "json")


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


# exception types -> (exit code, stderr prefix)
_EXIT_CODES = {
    (UsageError, DomainError, LabelError): (EXIT_USAGE, "error"),
    UnboundStateError: (EXIT_UNBOUND, "unbound state"),
    (ConvergenceError, NormalizationError): (EXIT_SOLVER, "solver failure"),
}


@dataclass(frozen=True)
class Report:
    """A subcommand's result before rendering, holding only what its format renders.

    A JSON request sets ``payload``, the JSON document.  A text or csv
    request sets, for table commands, ``header`` and ``rows`` and may add a
    ``footer`` that follows the text table only; the other commands set
    ``text``, printed as-is for both text and csv.  In every format
    ``notice`` goes to stdout after the report has been written to --out.
    """

    payload: object = None
    header: Sequence[str] = ()
    rows: Sequence[Sequence[str]] = ()
    footer: str = ""
    text: str | None = None
    notice: str = ""


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_physics_flags(sub: argparse.ArgumentParser) -> None:
    coupling = sub.add_mutually_exclusive_group(required=True)
    coupling.add_argument("--A", type=float, default=None, help="dimensionless coupling A")
    coupling.add_argument("--A-over-b", dest="a_over_b", type=float, default=None,
                          help="coupling as the ratio A/b (pairs with --inv-b)")
    screening = sub.add_mutually_exclusive_group(required=True)
    screening.add_argument("--b", type=float, default=None, help="screening length b")
    screening.add_argument("--inv-b", dest="inv_b", type=float, default=None,
                           help="screening 1/b (alternative to --b)")
    sub.add_argument("--alpha", type=float, required=True, help="shape parameter alpha")
    sub.add_argument("--mu", type=float, default=1.0, help="reduced mass (default 1, atomic units)")
    sub.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1, atomic units)")
    sub.add_argument("--dim", type=int, required=True, help="spatial dimension D >= 2")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", dest="output_format", default="text",
                     choices=_FORMATS, help="output format (default text)")
    sub.add_argument("--precision", type=int, default=9,
                     help="decimal digits in text/csv output (1..17, default 9)")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")
    sub.add_argument("--config", default=None,
                     help="optional key=value config file; flags override it")


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--states", default=None,
                     help='comma-separated spectroscopic labels, e.g. "2p,3d,4f"')
    sub.add_argument("--n", dest="n_range", default=None,
                     help='radial quantum number or range, e.g. "0" or "0:3"')
    sub.add_argument("--l", dest="l_range", default=None,
                     help='orbital quantum number or range, e.g. "1" or "0:2"')


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="manning-rosen",
        description="Bound states of the D-dimensional Manning-Rosen potential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form bound-state energies")
    _add_physics_flags(sp)
    _add_state_flags(sp)
    _add_output_flags(sp)

    tb = sub.add_parser("table", help="recompute the published reference table and audit it")
    _add_output_flags(tb)

    wf = sub.add_parser("wavefunction", help="sample a normalized radial wavefunction")
    _add_physics_flags(wf)
    _add_state_flags(wf)
    wf.add_argument("--samples", type=int, default=1000, help="number of radial samples")
    _add_output_flags(wf)

    orc = sub.add_parser("oracle", help="finite-difference eigensolver vs closed form")
    _add_physics_flags(orc)
    _add_state_flags(orc)
    orc.add_argument("--mode", choices=("exact", "approx", "both"), default="both",
                     help="centrifugal mode(s) of the solver; with both, the exact "
                          "cells of a level that only the exact 1/r^2 barrier unbinds "
                          "read unbound")
    orc.add_argument("--r-min", dest="r_min", type=float, default=None,
                     help="inner end of an explicit grid uniform in ln r "
                          "(default 1e-12 min(b, r_max))")
    orc.add_argument("--r-max", dest="r_max", type=float, default=None,
                     help="outer end of an explicit grid uniform in ln r")
    orc.add_argument("--n-points", dest="n_points", type=int, default=None,
                     help="points of an explicit grid uniform in ln r")
    _add_output_flags(orc)

    dg = sub.add_parser("degeneracy", help="interdimensional degenerate partners")
    _add_physics_flags(dg)
    dg.add_argument("--n", type=int, required=True)
    dg.add_argument("--l", type=int, required=True)
    dg.add_argument("--dmin", type=int, required=True)
    dg.add_argument("--dmax", type=int, required=True)
    _add_output_flags(dg)

    cc = sub.add_parser("critical-coupling", help="coupling at which a state unbinds")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--l", type=int, required=True)
    cc.add_argument("--dim", type=int, required=True)
    cc.add_argument("--alpha", type=float, required=True)
    _add_output_flags(cc)

    return parser


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


@functools.cache
def _locator() -> argparse.ArgumentParser:
    """Finds the subcommand and --config in argv, leaving every other token alone."""
    locator = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    locator.add_argument("command", nargs="?")
    locator.add_argument("--config")
    return locator


def _config_tokens(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """A key=value config file as ``--flag=value`` tokens for ``command``.

    Keys are long flags without dashes.  Keys of other subcommands are skipped,
    so one file can serve several; a key that no subcommand has is an error.
    """
    subparsers = _subparsers(parser)
    actions = {name: {flag[2:].lower(): (flag, action) for action in sub._actions
                      for flag in action.option_strings if flag.startswith("--")}
               for name, sub in subparsers.items()}
    tokens: list[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line (want key=value): {line!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                flag = key.lower().replace("_", "-")
                if not any(flag in known for known in actions.values()):
                    raise UsageError(f"unknown config key {key!r}: no subcommand has --{key}")
                option, action = actions[command].get(flag, (None, None))
                if action is None or action.nargs == 0:  # not this subcommand's, or --help
                    continue
                if action.choices is not None and value not in action.choices:
                    # names the file's key, where argparse would name the flag
                    raise UsageError(f"bad config value for {key}: {value!r}")
                tokens.append(f"{option}={value}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return tokens


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]):
    """Parse argv once, with a --config file's values as flags after the subcommand.

    argparse converts and checks the file's values like typed ones, and a flag
    typed on the command line comes later, so it wins.  When the locator cannot
    read argv, the parser parses it as given and words the error itself.  So
    does a request with no token that starts with ``--c``: --config is the only
    flag with that prefix, and argparse abbreviates it to no shorter one, so
    the locator would find no config there.
    """
    if not any(token.startswith("--c") for token in argv):
        return parser.parse_args(argv)
    try:
        located, _ = _locator().parse_known_args(argv)
    except argparse.ArgumentError:  # such as --config without a value
        return parser.parse_args(argv)
    command = located.command
    if located.config is None or command not in _subparsers(parser) or argv[0] != command:
        return parser.parse_args(argv)
    return parser.parse_args([command, *_config_tokens(parser, command, located.config),
                              *argv[1:]])


def _resolve_params(args) -> tuple[PotentialParams, int]:
    """Potential parameters and dimension D from the flags."""
    b = args.b
    if b is None:
        if args.inv_b <= 0.0:
            raise UsageError("--inv-b must be positive")
        b = 1.0 / args.inv_b
    a_value = args.A if args.A is not None else args.a_over_b * b
    return PotentialParams(A=a_value, alpha=args.alpha, b=b, mu=args.mu, hbar=args.hbar), args.dim


def _parse_range(text: str, name: str) -> list[int]:
    try:
        if ":" in text:
            lo_text, _, hi_text = text.partition(":")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"bad {name} range {text!r} (want 'k' or 'lo:hi')") from exc
    if lo < 0 or hi < lo:
        raise UsageError(f"bad {name} range {text!r}")
    return list(range(lo, hi + 1))


def _resolve_states(args) -> list[tuple[int, int]]:
    """(n, l) pairs from --states labels or --n/--l ranges, sorted by (l, n)."""
    pairs: set[tuple[int, int]] = set()
    if args.states:
        for label in args.states.split(","):
            label = label.strip()
            if label:
                pairs.add(parse_spectroscopic(label))
    elif args.n_range is not None and args.l_range is not None:
        for n in _parse_range(args.n_range, "--n"):
            for l in _parse_range(args.l_range, "--l"):
                pairs.add((n, l))
    else:
        raise UsageError("give --states, or both --n and --l")
    if not pairs:
        raise UsageError("no states requested")
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def _format_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


@functools.cache
def _encoder(indent: str) -> json.JSONEncoder:
    """json's C encoder, with ``,`` and then ``indent`` between items."""
    return json.JSONEncoder(sort_keys=True, separators=("," + indent, ": "))


# the types json's encoder writes as one token
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _flat(value) -> bool:
    """Whether ``value`` is a non-empty list or dict of ``_SCALARS`` only."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return bool(value) and _SCALARS.issuperset(map(type, value))


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, closing after ``indent``.

    The stdlib indents in pure Python.  Here json's C encoder writes, in one
    call, each flat list or dict (``_flat``), and all the items of a list or
    dict whose items are all flat lists or all flat dicts: a newline stands
    only in a separator, never in an encoded string, so the text splits into
    items where one closes and the next opens on a new line.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    if _flat(value):
        text = _encoder(inner).encode(value)
        return text[0] + inner + text[1:-1] + indent + text[-1]
    items = sorted(value.items()) if isinstance(value, dict) else None
    children = value if items is None else [item for _, item in items]
    kind = isinstance(children[0], dict)
    if all(_flat(child) and isinstance(child, dict) == kind for child in children):
        start, end = "{}" if kind else "[]"
        deeper = inner + "  "
        texts = [start + deeper + text + inner + end for text in
                 _encoder(deeper).encode(children)[2:-2].split(end + "," + deeper + start)]
    else:
        texts = [_json(child, inner) for child in children]
    if items is not None:
        texts = [json.dumps(key) + ": " + text for (key, _), text in zip(items, texts)]
    brackets = "[]" if items is None else "{}"
    return brackets[0] + inner + ("," + inner).join(texts) + indent + brackets[1]


def _render(report: Report, output_format: str) -> str:
    if output_format == "json":
        return _json(report.payload) + "\n"
    if report.text is not None:
        return report.text
    if output_format == "csv":
        return _format_csv(report.header, report.rows)
    lines = [report.header, *report.rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(report.header))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
                   for line in lines) + report.footer


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _closed_form(params: PotentialParams, state: QuantumState) -> dict:
    """Status (bound, unbound or undefined), energy, epsilon and eta of one state.

    Any other :class:`DomainError` of ``energy`` (a non-finite E) propagates.
    """
    try:
        eta = _shape(params.alpha, state.q)[1]
    except DomainError:  # q = 0 with |1 - 2 alpha| < 1: no real solution
        return {"status": "undefined", "energy": None, "epsilon": None, "eta": None}
    try:
        entry = energy(params, state)
    except UnboundStateError as exc:
        return {"status": "unbound", "energy": None, "epsilon": exc.epsilon, "eta": eta}
    return {"status": "bound", "energy": entry.energy, "epsilon": entry.epsilon,
            "eta": entry.eta}


# ---------------------------------------------------------------------------
# subcommands: each takes (args, precision) and returns a Report
# ---------------------------------------------------------------------------

def _cmd_spectrum(args, precision) -> Report:
    params, dim = _resolve_params(args)
    records = [{"label": state_label(n, l), "n": n, "l": l, "D": dim,
                **_closed_form(params, QuantumState(n=n, l=l, D=dim))}
               for n, l in _resolve_states(args)]
    if args.output_format == "json":
        return Report(payload=records)
    rows = [[record["label"], str(record["n"]), str(record["l"]), str(dim)]
            + ["-" if record[key] is None else _fmt(record[key], precision)
               for key in ("energy", "epsilon", "eta")]
            + [record["status"]] for record in records]
    bound = any(record["status"] == "bound" for record in records)
    header = ["label", "n", "l", "D", "energy", "epsilon", "eta", "status"]
    return Report(header=header, rows=rows,
                  footer="" if bound else "note: no bound states for these parameters\n")


def _cmd_table(args, precision) -> Report:
    audit = [(item, item.cell) for item in audit_reference_table()]
    if args.output_format == "json":
        return Report(payload={
            f"{cell.label},{cell.inv_b:.3f},{cell.alpha_label},{cell.D}": {
                "reference": cell.reference_energy,
                "computed": item.computed_energy,
                "deviation": item.deviation,
                "suspect": item.suspect,
            } for item, cell in audit})
    rows = [[cell.label, f"{cell.inv_b:.3f}", str(cell.D), cell.alpha_label,
             _fmt(cell.reference_energy, precision), _fmt(item.computed_energy, precision),
             f"{item.deviation:.3e}", "SUSPECT" if item.suspect else "ok"] for item, cell in audit]
    suspects = [row for row in rows if row[-1] == "SUSPECT"]
    footer = f"\nsuspected erratum cells: {len(suspects)}\n" + "".join(
        f"  {label} D={dim} alpha={alpha} 1/b={inv_b}: published {published}, "
        f"recomputed {computed}\n"
        for label, inv_b, dim, alpha, published, computed, *_ in suspects)
    header = ["state", "inv_b", "D", "alpha", "reference", "computed", "deviation", "flag"]
    return Report(header=header, rows=rows, footer=footer)


def _cmd_wavefunction(args, precision) -> Report:
    params, dim = _resolve_params(args)
    states = _resolve_states(args)
    if len(states) != 1:
        raise UsageError("wavefunction wants exactly one state")
    n, l = states[0]
    solution = radial_wavefunction(params, QuantumState(n=n, l=l, D=dim))
    quad_norm = normalization_quadrature(params, solution.entry)
    # ratio of closed-form to quadrature normalization, squared: unit norm check
    norm_check = (solution.norm_constant / quad_norm) ** 2
    samples = solution.sample(args.samples).tolist()
    columns = ["r", "z", "g", "g_squared"]
    label = state_label(n, l)
    notice = (f"{label}: wrote {args.samples} samples to {args.out} "
              f"(norm={norm_check:.12f}, nodes={solution.node_count})\n")
    if args.output_format == "json":
        return Report(payload={
            "label": label, "n": n, "l": l, "D": dim,
            "energy": solution.entry.energy,
            "epsilon": solution.entry.epsilon,
            "node_count": solution.node_count,
            "norm": norm_check,
            "columns": columns,
            "samples": samples,
        }, notice=notice)
    # a fixed-point float needs no csv quoting, so one %-format writes a whole row
    row_format = ",".join([f"%.{precision}f"] * len(columns)) + "\n"
    return Report(text=",".join(columns) + "\n"
                  + "".join(row_format % tuple(row) for row in samples)
                  + f"# norm={norm_check:.12f}\n# node_count={solution.node_count}\n",
                  notice=notice)


def _cmd_oracle(args, precision) -> Report:
    # SciPy loads here, not at startup
    from .oracle import LogRadialGrid, _grid_origin, audit_channel

    params, dim = _resolve_params(args)
    states = [QuantumState(n=n, l=l, D=dim) for n, l in _resolve_states(args)]
    grid = None
    if args.r_min is not None or args.r_max is not None or args.n_points is not None:
        if args.r_max is None or args.n_points is None:
            raise UsageError("grid override needs --r-max and --n-points (and optional --r-min)")
        r_min = args.r_min if args.r_min is not None else _grid_origin(params.b, args.r_max)
        grid = LogRadialGrid(r_min=r_min, r_max=args.r_max, n_points=args.n_points)

    if args.mode == "both":
        modes = (CentrifugalMode.EXACT, CentrifugalMode.APPROXIMATED)
        columns = ["exact", "approx", "rel_err_approx", "rel_err_exact"]
    else:
        modes = (CentrifugalMode(args.mode),)
        columns = [args.mode, "rel_err"]
    status = {state: _closed_form(params, state)["status"] for state in states}
    bound = [state for state in states if status[state] == "bound"]
    audits = {}
    for l in dict.fromkeys(state.l for state in bound):  # states come sorted by (l, n)
        group = [state for state in bound if state.l == l]
        audits.update(zip(group, audit_channel(params, dim, l, [s.n for s in group], modes, grid)))
    records = []
    for state in states:
        record = {"label": state_label(state.n, state.l), "n": state.n, "l": state.l, "D": dim,
                  "status": status[state]}
        if state in audits:
            audit = audits[state]
            fields = {"closed": audit.e_closed, "exact": audit.e_exact, "approx": audit.e_approx,
                      "rel_err_approx": audit.rel_errors[0], "rel_err_exact": audit.rel_errors[1]}
            fields["rel_err"] = fields.get(f"rel_err_{args.mode}")  # the one mode's, unless both
            record.update(status="ok", **{key: fields[key] for key in ["closed", *columns]})
        records.append(record)
    if args.output_format == "json":
        return Report(payload=records)
    rows = []
    for record in records:
        if record["status"] == "ok":  # an audited state
            cells = ["unbound" if record[key] is None
                     else f"{record[key]:.3e}" if key.startswith("rel_err")
                     else _fmt(record[key], precision) for key in ["closed", *columns]]
        else:
            cells = ["-"] + [record["status"]] * len(columns)
        rows.append([record["label"], str(record["n"]), str(record["l"]), str(dim), *cells])
    return Report(header=["label", "n", "l", "D", "closed", *columns], rows=rows)


def _cmd_degeneracy(args, precision) -> Report:
    params, dim = _resolve_params(args)
    state = QuantumState(n=args.n, l=args.l, D=dim)
    partners = degenerate_partners(state, args.dmin, args.dmax)
    # every partner keeps q = D + 2l - 2, and with it the whole closed form
    closed = _closed_form(params, state)
    records = [{"label": state_label(partner.n, partner.l), "n": partner.n, "l": partner.l,
                "D": partner.D, "status": closed["status"]} for partner in partners]
    if args.output_format == "json":
        return Report(payload={"partners": records, "energy": closed["energy"]})
    header = ["label", "n", "l", "D", "status"]
    shared = (f"{closed['status']} for these parameters" if closed["energy"] is None
              else _fmt(closed["energy"], precision))
    return Report(header=header, rows=[[str(record[key]) for key in header] for record in records],
                  footer=f"shared energy: {shared}\n")


def _cmd_critical_coupling(args, precision) -> Report:
    a_critical = critical_coupling(QuantumState(n=args.n, l=args.l, D=args.dim), args.alpha)
    if args.output_format == "json":
        return Report(payload={"n": args.n, "l": args.l, "D": args.dim,
                               "alpha": args.alpha, "A_c": a_critical})
    return Report(text=f"A_c = {_fmt(a_critical, precision)}\n")


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "table": _cmd_table,
    "wavefunction": _cmd_wavefunction,
    "oracle": _cmd_oracle,
    "degeneracy": _cmd_degeneracy,
    "critical-coupling": _cmd_critical_coupling,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
        if not 1 <= args.precision <= 17:
            raise UsageError("--precision must lie in 1..17")
        report = _COMMANDS[args.command](args, args.precision)
        text = _render(report, args.output_format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write output file: {exc}") from exc
            sys.stdout.write(report.notice)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep that contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except Exception as exc:
        for kinds, (code, prefix) in _EXIT_CODES.items():
            if isinstance(exc, kinds):
                sys.stderr.write(f"{prefix}: {exc}\n")
                return code
        raise
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
