"""Span recorder that wraps qborel's public callables from outside the package.

`Tracer.install()` replaces each traced function wherever a qborel module
binds it (so `cli.solve_coupled` and `formal_asymptotics.solve_triangular`,
which are imported names, are wrapped as well as the defining module's own
binding), and patches traced methods on their classes.  Wrappers pass return
values and exceptions through unchanged.  Spans stay in memory as
(id, name, parent, start, end, error, attrs) and are written out once, at the
end of the run, by `Tracer.dump`.

`layer_metrics` turns a dumped trace into the per-layer metrics of
BENCHMARK.json.  It runs in run.py, not in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# Traced functions: module -> names.  Each gets a span named "<module>.<name>".
SPANNED = {
    "cli": ["write_csv", "write_json"],
    "problem_model": ["validate_assumptions"],
    "geometry": ["build_good_covering", "make_geometry", "sector_root_clearance",
                 "bound_constants", "operator_constants"],
    "borel_solver": ["build_grid", "solve_coupled", "solve_triangular",
                     "contraction_estimate"],
    "special_functions": ["theta_scaled"],
    "solution_assembly": ["residual_physical", "residual_borel",
                          "solution_difference"],
    "formal_asymptotics": ["formal_coefficients", "formal_residual",
                           "gevrey_remainder_check", "difference_decay_fit"],
}
# Called tens of thousands of times with no traced callee: counted, not spanned.
COUNTED = {
    "geometry": ["pm_roots"],
    "formal_asymptotics": ["evaluate_formal"],
}
# Traced methods: (module, class) -> method names.
METHODS = {
    ("borel_solver", "SolverContext"): ["__init__", "apply_H", "apply_H1",
                                        "apply_H0", "g_eps",
                                        "undivided_residual"],
    ("solution_assembly", "LogSolution"): ["component"],
    ("formal_asymptotics", "SolutionFamily"): ["at"],
}
MODULES = ("cli", "problem_model", "geometry", "borel_solver",
           "special_functions", "transforms", "solution_assembly",
           "formal_asymptotics")
VERBS = ("check-geometry", "solve", "evaluate", "residual", "formal",
         "asymptotics", "all")


def _gemm_count(ctx, method: str) -> int:
    """Kernel GEMMs one SolverContext operator call performs.

    Each dilation term contributes one convolution per unknown it acts on and
    each nonzero b symbol one more, as in SolverContext._rhs_components and
    the triangular sub-operators.
    """
    terms = len(ctx.spec.terms)
    live = {jk for jk, K in ctx.b_kernel.items() if K is not None}
    if method in ("apply_H", "undivided_residual"):
        return 2 * terms + len(live)
    own = {"apply_H1": (1, 1), "g_eps": (1, 0), "apply_H0": (0, 0)}[method]
    return terms + (own in live)


def _gemm_flop(ctx, method: str) -> float:
    """Computed flops: complex (n_nodes + 1) x m by m x m products, 8 flop each."""
    n = ctx.grid.n_nodes + 1
    m = ctx.grid.m.size
    return 8.0 * n * m * m * _gemm_count(ctx, method)


def _attrs(name, args, kwargs, result) -> dict:
    """Exact work counts read off a traced call's arguments and result."""
    if name == "cli.write_csv":
        path = args[0] if args else kwargs["path"]
        return {"rows": len(args[2] if len(args) > 2 else kwargs["rows"]),
                "bytes": os.path.getsize(path)}
    if name == "borel_solver.build_grid":
        return {"nodes": result.n_nodes, "m_nodes": int(result.m.size)}
    if name in ("borel_solver.solve_coupled", "borel_solver.solve_triangular"):
        return {"picard_iters": len(result[2].update_history)}
    if name == "special_functions.theta_scaled":
        z = args[0] if args else kwargs["z"]
        return {"points": int(getattr(z, "size", 1))}
    if name == "formal_asymptotics.difference_decay_fit":
        samples = args[2] if len(args) > 2 else kwargs["eps_samples"]
        return {"dropped": len(samples) - len(result.eps_samples)}
    if name.startswith("borel_solver.SolverContext.") and not name.endswith("__init__"):
        return {"gemm_flop": _gemm_flop(args[0], name.rsplit(".", 1)[1])}
    return {}


class Tracer:
    """In-memory span stack and counters for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [id, name, parent, start, end, error, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            rec = [sid, name, self.stack[-1] if self.stack else None,
                   time.perf_counter(), None, None, {}]
            self.spans.append(rec)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
            rec[6] = _attrs(name, args, kwargs, result)
            return result
        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every traced callable at each place qborel looks it up."""
        mods = {m: importlib.import_module(f"qborel.{m}") for m in MODULES}

        def rebind(orig, wrapped):
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

        for mod, names in SPANNED.items():
            for fname in names:
                orig = getattr(mods[mod], fname)
                rebind(orig, self.span(f"{mod}.{fname}", orig))
        for mod, names in COUNTED.items():
            for fname in names:
                orig = getattr(mods[mod], fname)
                rebind(orig, self.counter(f"{mod}.{fname}", orig))
        for (mod, cls_name), names in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            for meth in names:
                setattr(cls, meth, self.span(f"{mod}.{cls_name}.{meth}",
                                             getattr(cls, meth)))
        cli = mods["cli"]
        for verb, fn in list(cli.DISPATCH.items()):
            wrapped = self.span(f"cli.verb.{verb}", fn)
            cli.DISPATCH[verb] = wrapped
            rebind(fn, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, start, end, error, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, "error": error,
                                     "run": self.run_id, "attrs": attrs}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "run": self.run_id}) + "\n")


def load_trace(path):
    """(spans, counts) of a dumped trace."""
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    return spans, counts


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children of one span never overlap and
    their durations add.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Each timed span reports under its own name, except these methods.
RENAMED = {
    "borel_solver.SolverContext.__init__": "borel_solver.SolverContext",
    "borel_solver.SolverContext.apply_H": "borel_solver.apply_H",
    "borel_solver.SolverContext.apply_H1": "borel_solver.apply_H1",
    "borel_solver.SolverContext.apply_H0": "borel_solver.apply_H0",
}
# metric prefix -> span name
TIMED = {RENAMED.get(n, n): n for n in
         [f"{mod}.{f}" for mod, names in SPANNED.items() for f in names]
         + list(RENAMED) + ["solution_assembly.LogSolution.component"]}
# metric prefixes that also report a call count, and the count's suffix
CALLED = {
    "problem_model.validate_assumptions": "calls",
    "geometry.make_geometry": "calls",
    "geometry.sector_root_clearance": "calls",
    "borel_solver.build_grid": "calls",
    "borel_solver.SolverContext": "builds",
    "borel_solver.apply_H": "calls",
    "borel_solver.apply_H1": "calls",
    "borel_solver.apply_H0": "calls",
    "borel_solver.solve_coupled": "calls",
    "borel_solver.solve_triangular": "calls",
    "special_functions.theta_scaled": "calls",
    "solution_assembly.LogSolution.component": "calls",
    "solution_assembly.solution_difference": "calls",
}

# Deterministic work counts beyond the call counts above.
EXACT = ["cli.write_csv.rows", "cli.write_csv.bytes", "geometry.pm_roots.calls",
         "borel_solver.grid_nodes", "borel_solver.m_nodes",
         "borel_solver.solve_coupled.picard_iters",
         "borel_solver.solve_triangular.picard_iters", "borel_solver.gemm_gflop",
         "special_functions.theta_scaled.points", "solution_assembly.laplace_evals",
         "solution_assembly.laplace_per_component",
         "formal_asymptotics.SolutionFamily.at.calls",
         "formal_asymptotics.SolutionFamily.solves",
         "formal_asymptotics.difference_decay_fit.nudges",
         "formal_asymptotics.difference_decay_fit.dropped",
         "formal_asymptotics.evaluate_formal.calls", "trace.spans"]
# Every count: equal on every traced run of one commit and seed.
COUNT_METRICS = EXACT + [f"{p}.{c}" for p, c in CALLED.items()]


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("per_component"):
        return "ratio"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"cli.verb_s.{v}" for v in VERBS]
    for prefix in TIMED:
        if prefix in CALLED:
            names.append(f"{prefix}.{CALLED[prefix]}")
        names += [f"{prefix}.s", f"{prefix}.self_s"]
    return names + EXACT + ["trace.wall_s", "trace.overhead_s"]


def metric_units() -> dict[str, str]:
    return {n: _unit(n) for n in metric_names()}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced run (trace.wall_s and
    trace.overhead_s are filled in by the caller)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    names = {s["id"]: s["name"] for s in spans}

    def total(name, key=None):
        if key is None:
            return sum(s["end"] - s["start"] for s in by_name[name])
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def children_of(parent_name, child_names):
        return sum(1 for s in spans if s["name"] in child_names
                   and s["parent"] is not None and names[s["parent"]] == parent_name)

    out = {f"cli.verb_s.{v}": total(f"cli.verb.{v}") for v in VERBS}
    for prefix, span_name in TIMED.items():
        if prefix in CALLED:
            out[f"{prefix}.{CALLED[prefix]}"] = len(by_name[span_name])
        out[f"{prefix}.s"] = total(span_name)
        out[f"{prefix}.self_s"] = sum(own[s["id"]] for s in by_name[span_name])

    component = "solution_assembly.LogSolution.component"
    laplace = children_of(component, {"special_functions.theta_scaled"})
    fit = "formal_asymptotics.difference_decay_fit"
    out.update({
        "cli.write_csv.rows": total("cli.write_csv", "rows"),
        "cli.write_csv.bytes": total("cli.write_csv", "bytes"),
        "geometry.pm_roots.calls": counts.get("geometry.pm_roots", 0),
        "borel_solver.grid_nodes": max((s["attrs"]["nodes"] for s in
                                        by_name["borel_solver.build_grid"]), default=0),
        "borel_solver.m_nodes": max((s["attrs"]["m_nodes"] for s in
                                     by_name["borel_solver.build_grid"]), default=0),
        "borel_solver.solve_coupled.picard_iters":
            total("borel_solver.solve_coupled", "picard_iters"),
        "borel_solver.solve_triangular.picard_iters":
            total("borel_solver.solve_triangular", "picard_iters"),
        "borel_solver.gemm_gflop":
            sum(s["attrs"].get("gemm_flop", 0.0) for s in spans) / 1e9,
        "special_functions.theta_scaled.points":
            total("special_functions.theta_scaled", "points"),
        "solution_assembly.laplace_evals": laplace,
        "solution_assembly.laplace_per_component":
            laplace / len(by_name[component]) if by_name[component] else 0.0,
        "formal_asymptotics.SolutionFamily.at.calls":
            len(by_name["formal_asymptotics.SolutionFamily.at"]),
        "formal_asymptotics.SolutionFamily.solves": children_of(
            "formal_asymptotics.SolutionFamily.at",
            {"borel_solver.solve_coupled", "borel_solver.solve_triangular"}),
        # each nudge is one DomainError that the fit caught from a direct callee
        f"{fit}.nudges": sum(1 for s in spans if s["error"] == "DomainError"
                             and s["parent"] is not None
                             and names[s["parent"]] == fit),
        f"{fit}.dropped": total(fit, "dropped"),
        "formal_asymptotics.evaluate_formal.calls":
            counts.get("formal_asymptotics.evaluate_formal", 0),
        "trace.spans": len(spans),
    })
    return out
