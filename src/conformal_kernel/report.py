"""Deterministic structured reports: [check] / [witness] / [summary] lines.

Reports are byte-identical across runs given the same manifest, flags and
seed: every iteration below is sorted, witness polynomials are rendered in a
fixed graded-lex monomial order with D heaviest.
"""

from __future__ import annotations

from .algebra import CheckReport, FAIL, INCONCLUSIVE, PASS
from .symcore import LambdaPoly, ModElement

SCHEMA = 1


def render_scalar(c) -> str:
    return str(c)


def render_poly(lp: LambdaPoly) -> str:
    """Canonical string: monomials sorted graded-lex over (D, context vars)."""
    if lp.is_zero():
        return "0"
    rows = []
    for exp, g, k, c in lp.flat():
        rows.append((k + sum(exp), k, exp, str(g), c))
    rows.sort(key=lambda r: (-r[0], -r[1], tuple(-e for e in r[2]), r[3]))
    bits = []
    for _deg, k, exp, gname, c in rows:
        factors = []
        if c != 1 or (k == 0 and not any(exp)):
            factors.append(render_scalar(c))
        if k:
            factors.append("D" + (f"^{k}" if k > 1 else ""))
        for name, e in zip(lp.context, exp):
            if e:
                factors.append(name + (f"^{e}" if e > 1 else ""))
        factors.append(gname)
        bits.append("*".join(factors))
    return " + ".join(bits).replace("+ -", "- ")


def render_tuple(t) -> str:
    def one(x):
        if isinstance(x, ModElement):
            items = x.items()
            if len(items) == 1 and items[0][1].coeffs == (1,):
                return str(items[0][0])
            return repr(x)
        return str(x)

    return "(" + ",".join(one(x) for x in t) + ")"


def render_reports(command: str, manifest_name: str, reports: list[CheckReport],
                   options: dict) -> tuple[str, int]:
    """Assemble the report text and the process exit status."""
    lines = []
    any_fail = any(r.status == FAIL for r in reports)
    any_inconclusive = any(r.status == INCONCLUSIVE for r in reports)
    for r in reports:
        base = f"[check] name={r.name} status={r.status} checked={r.checked} escaped={r.escaped}"
        for note in r.notes:
            base += f' note="{note}"'
        lines.append(base)
    for r in reports:
        for t, residual in r.witnesses:
            lines.append(f"[witness] check={r.name} tuple={render_tuple(t)} "
                         f"residual={render_poly(residual)}")
    status = FAIL if any_fail else (INCONCLUSIVE if any_inconclusive else PASS)
    opts = " ".join(f"{k}={options[k]}" for k in sorted(options))
    lines.append(f"[summary] schema={SCHEMA} command={command} manifest={manifest_name} "
                 f"status={status} checks={len(reports)} "
                 f"failures={sum(1 for r in reports if r.status == FAIL)}"
                 + (f" {opts}" if opts else ""))
    exit_code = 1 if any_fail else (2 if any_inconclusive else 0)
    return "\n".join(lines) + "\n", exit_code
