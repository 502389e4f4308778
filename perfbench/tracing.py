"""Spans around the package's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function at every name the package
looks it up by (for example ``manning_rosen.oracle.sturm_count`` and
``manning_rosen.oracle.eigh_tridiagonal``), and each CLI subcommand in the
CLI's command table.  A span records its name, start, end and parent; spans
stay in memory until ``write`` saves them.  A traced name that a later
version of the package no longer has, or no longer calls, reports 0.
"""

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "manning_rosen"

# (span name, module, attribute): the function whose bindings get wrapped
TARGETS = (
    ("oracle.solve_radial", "oracle", "solve_radial"),
    ("oracle.approximation_audit", "oracle", "approximation_audit"),
    ("oracle.default_grid", "oracle", "default_grid"),
    ("oracle.assembly", "oracle", "_tridiagonal"),
    ("oracle.sturm_count", "oracle", "sturm_count"),
    ("oracle.eigensolve", "oracle", "eigh_tridiagonal"),
    ("model.effective_potential", "model", "effective_potential"),
    ("spectrum.energy", "spectrum", "energy"),
    ("spectrum.epsilon_parameter", "spectrum", "epsilon_parameter"),
    ("wavefun.radial_wavefunction", "wavefun", "radial_wavefunction"),
    ("wavefun.normalization_closed_form", "wavefun", "normalization_closed_form"),
    ("wavefun.normalization_quadrature", "wavefun", "normalization_quadrature"),
    ("specfun.jacobi", "specfun", "jacobi"),
    ("specfun.gauss_legendre", "specfun", "gauss_legendre"),
    ("reference.audit_reference_table", "reference", "audit_reference_table"),
    ("cli.main", "cli", "main"),
)
CLI_COMMANDS = ("spectrum", "table", "wavefunction", "degeneracy", "critical-coupling",
                "oracle")


def _grid_points(args, kwargs) -> int:
    grid = kwargs.get("grid", args[4] if len(args) > 4 else None)
    return int(getattr(grid, "n_points", 0))


def _order(args, kwargs) -> int:
    return int(kwargs.get("order", args[0] if args else 0))


def _points(args, kwargs) -> int:
    return int(np.size(kwargs.get("x", args[3] if len(args) > 3 else 0)))


# counters fed from a traced call's arguments or result
ON_CALL = {
    "oracle.assembly": ("oracle.grid_points", _grid_points),
    "specfun.jacobi": ("specfun.jacobi_points", _points),
    "specfun.gauss_legendre": ("specfun.quadrature_nodes", _order),
}
ON_RETURN = {
    "oracle.solve_radial": ("oracle.resolution_warnings",
                            lambda result: len(getattr(result, "warnings", ()))),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        # (name, start, end, parent index or -1); tuples of plain values, which the
        # garbage collector stops tracking, so a long run does not slow collection
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._cache_info = None
        self._misses_at_install = 0

    def wrap(self, name: str, fn):
        on_call = ON_CALL.get(name)
        on_return = ON_RETURN.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            if on_call is not None:
                counters[on_call[0]] += on_call[1](args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if on_return is not None:
                counters[on_return[0]] += on_return[1](result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every target at each of its bindings in the imported package."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module, attribute in TARGETS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attribute, None)
            if original is None:
                continue
            if name == "specfun.gauss_legendre":
                self._cache_info = getattr(original, "cache_info", None)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        wavefun = sys.modules.get(f"{PACKAGE}.wavefun")
        solution = getattr(wavefun, "RadialSolution", None)
        if solution is not None and hasattr(solution, "sample"):
            solution.sample = self.wrap("wavefun.sample", solution.sample)
        commands = getattr(sys.modules.get(f"{PACKAGE}.cli"), "_COMMANDS", {})
        for command in CLI_COMMANDS:
            if command in commands:
                span = "cli." + command.replace("-", "_")
                commands[command] = self.wrap(span, commands[command])
        self._misses_at_install = self._cache_info().misses if self._cache_info else 0

    def rule_cache_misses(self) -> float:
        """Rules built since install; without a rule cache every request builds one."""
        if self._cache_info is None:
            return float(sum(1 for span in self.spans if span[0] == "specfun.gauss_legendre"))
        return float(self._cache_info().misses - self._misses_at_install)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds, self seconds."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            own[name] += end - start - covered
        return calls, inclusive, own

    def per_layer(self, rounds: int, imports: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics; counts and seconds are per round of the workload."""
        calls, inclusive, own = self.totals()
        main_ms = [1e3 * (end - start) for name, start, end, _ in self.spans
                   if name == "cli.main"]
        values = {
            "oracle.solve_radial_calls": calls["oracle.solve_radial"],
            "oracle.solve_radial_s": inclusive["oracle.solve_radial"],
            "oracle.approximation_audit_calls": calls["oracle.approximation_audit"],
            "oracle.approximation_audit_s": inclusive["oracle.approximation_audit"],
            "oracle.default_grid_s": inclusive["oracle.default_grid"],
            "oracle.grid_points": self.counters["oracle.grid_points"],
            "oracle.assembly_s": inclusive["oracle.assembly"],
            "oracle.sturm_count_calls": calls["oracle.sturm_count"],
            "oracle.sturm_count_s": inclusive["oracle.sturm_count"],
            "oracle.eigensolve_calls": calls["oracle.eigensolve"],
            "oracle.eigensolve_s": inclusive["oracle.eigensolve"],
            "oracle.self_s": own["oracle.solve_radial"] + own["oracle.approximation_audit"],
            "oracle.resolution_warnings": self.counters["oracle.resolution_warnings"],
            "spectrum.energy_calls": calls["spectrum.energy"],
            "spectrum.energy_s": inclusive["spectrum.energy"],
            "spectrum.epsilon_parameter_calls": calls["spectrum.epsilon_parameter"],
            "wavefun.radial_wavefunction_s": inclusive["wavefun.radial_wavefunction"],
            "wavefun.normalization_closed_form_s":
                inclusive["wavefun.normalization_closed_form"],
            "wavefun.normalization_quadrature_s":
                inclusive["wavefun.normalization_quadrature"],
            "wavefun.sample_s": inclusive["wavefun.sample"],
            "specfun.jacobi_calls": calls["specfun.jacobi"],
            "specfun.jacobi_points": self.counters["specfun.jacobi_points"],
            "specfun.jacobi_s": inclusive["specfun.jacobi"],
            "specfun.quadrature_nodes": self.counters["specfun.quadrature_nodes"],
            "specfun.rule_cache_misses": self.rule_cache_misses(),
            "reference.audit_reference_table_s": inclusive["reference.audit_reference_table"],
            "cli.spectrum_s": inclusive["cli.spectrum"],
            "cli.table_s": inclusive["cli.table"],
            "cli.wavefunction_s": inclusive["cli.wavefunction"],
            "cli.degeneracy_s": inclusive["cli.degeneracy"],
            "cli.critical_coupling_s": inclusive["cli.critical_coupling"],
        }
        values = {key: value / rounds for key, value in values.items()}
        values["cli.main_ms_p50"] = statistics.median(main_ms) if main_ms else 0.0
        values.update(imports)
        return values

    def write(self, path) -> None:
        """Save the spans as {"names": [...], "spans": [[name index, start, end, parent]]},
        start and end in microseconds from the first span."""
        index: dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index.setdefault(name, len(index)), round((start - origin) * 1e6, 1),
                 round((end - origin) * 1e6, 1), parent]
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(index), "spans": rows}, handle, separators=(",", ":"))
