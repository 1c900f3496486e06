"""Spans and cache counters recorded around the engine's public calls,
installed from outside the package by rebinding names.

A span is (name, start, end, parent).  Spans live in flat arrays until the
pass ends; a span's self time is its duration minus the time its direct
children cover.  Cache counters read the size of a cache attribute around
each lookup, so an insertion is counted even when the owning object dies
before the job ends (the differentials build short-lived cochains).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (span name, module, attribute path).  Module-level functions are rebound in
# every engine namespace that imported them by name (``pair`` lives in
# algebra, deform, cohomology and constructors); methods are rebound on
# their class.
SPANS = [
    ("manifest.parse_file", "manifest", "parse_file"),
    ("constructors.adjoint_module", "constructors", "adjoint_module"),
    ("symcore.subst_many", "symcore", "LambdaPoly.subst_many"),
    ("symcore.subst_linear", "symcore", "LambdaPoly.subst_linear"),
    ("symcore.Accumulator.build", "symcore", "Accumulator.build"),
    ("symcore.multi_shifted_action", "symcore", "multi_shifted_action"),
    ("algebra.pair", "algebra", "pair"),
    ("algebra.run_tuple_check", "algebra", "run_tuple_check"),
    ("coeff.basis_op", "coeff", "CoeffAlgebra._basis_op"),
    ("coeff.check_coeff_poisson", "coeff", "check_coeff_poisson"),
    # The differentials return lazy cochains; their work runs in value().
    ("cohomology.Cochain.value", "cohomology", "Cochain.value"),
    ("cohomology.eval_cochain", "cohomology", "eval_cochain"),
    ("linalg.solve_exact", "linalg", "solve_exact"),
    ("deform.check_n_deformation", "deform", "check_n_deformation"),
    ("deform.extend_deformation", "deform", "extend_deformation"),
    ("report.render_reports", "report", "render_reports"),
]

# (counter name, module, method path, cache attribute of the method's owner)
CACHES = [
    ("algebra.rule_entry", "algebra", "StructureRule.entry", "_entries"),
    ("algebra.shift_cache", "algebra", "StructureRule.shifted_entry", "_shift_cache"),
    ("coeff.ops", "coeff", "CoeffAlgebra._basis_op", "_ops"),
    ("cohomology.cochain_cache", "cohomology", "Cochain.value", "_cache"),
]

PACKAGE = "conformal_kernel"


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the engine has no
    such name, so a refactor that removes it reads as zero work."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # counter name -> [lookups, entries added]
        self.caches: dict[str, list[int]] = {}
        self.solves: list[dict] = []
        self.missing: list[str] = []
        self.current_job = ""

    # -- recording -----------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def _count_cache(self, name: str, attr: str, fn):
        counts = self.caches.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def counted(owner, *args, **kwargs):
            before = len(getattr(owner, attr, ()))
            try:
                return fn(owner, *args, **kwargs)
            finally:
                counts[0] += 1
                counts[1] += len(getattr(owner, attr, ())) - before

        return counted

    def _check_solve(self, fn):
        """Record the shape of every system handed to the solver and
        substitute the returned x back into A x = b exactly."""
        def copy(rows, rhs):
            return [row[:] for row in rows], rhs[:]

        def check(rows, rhs, x):
            ok = x is not None and all(
                sum(a * xi for a, xi in zip(row, x) if a) == bi
                for row, bi in zip(rows, rhs))
            self.solves.append({"job": self.current_job, "rows": len(rows),
                                "cols": len(rows[0]) if rows else 0,
                                "nnz": sum(1 for row in rows for v in row if v),
                                "verified": ok})

        # The copy and the check run in spans of their own, so their time
        # is not charged to the solver's caller.
        copy = self.wrap("harness.copy_system", copy)
        check = self.wrap("harness.check_solution", check)

        @functools.wraps(fn)
        def probed(rows, rhs):
            kept = copy(rows, rhs)
            x = fn(rows, rhs)
            check(*kept, x)
            return x

        return probed

    # -- installation --------------------------------------------------------
    def install(self):
        """Rebind every traced name; call after importing the engine."""
        for name, module, path, attr in CACHES:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, key, fn = found
            setattr(owner, key, self._count_cache(name, attr, fn))
        for name, module, path in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, key, fn = found
            wrapped = self.wrap(name, fn)
            if name == "linalg.solve_exact":
                wrapped = self._check_solve(wrapped)
            if isinstance(owner, type):
                setattr(owner, key, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr_name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr_name, wrapped)

    # -- summaries -----------------------------------------------------------
    def self_times(self):
        """(calls, self seconds) per span name, and self seconds per call
        path as folded stacks ('a;b;c')."""
        n = len(self.span_start)
        starts, ends, parents, names = (self.span_start, self.span_end,
                                        self.span_parent, self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        per_name: dict[str, list] = {nm: [0, 0.0] for nm in self.names}
        path_of = [0] * n
        path_ids: dict[tuple[int, int], int] = {}
        path_names: list[str] = []
        folded: dict[int, list] = {}
        for i in range(n):
            nm = self.names[names[i]]
            own = ends[i] - starts[i] - child[i]
            agg = per_name[nm]
            agg[0] += 1
            agg[1] += own
            p = parents[i]
            key = (path_of[p] if p >= 0 else -1, names[i])
            pid = path_ids.get(key)
            if pid is None:
                pid = path_ids[key] = len(path_names)
                path_names.append(nm if key[0] < 0 else f"{path_names[key[0]]};{nm}")
            path_of[i] = pid
            slot = folded.setdefault(pid, [0, 0.0])
            slot[0] += 1
            slot[1] += own
        stacks = {path_names[pid]: v for pid, v in folded.items()}
        return per_name, stacks
