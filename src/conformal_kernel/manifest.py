"""Text-format manifests: algebras, deformation series and Nijenhuis maps.

Line-oriented format, ``#`` comments.  ``D`` denotes the derivation symbol,
``L`` the spectral variable of a binary rule (``L1..``/``M1..`` in cochain
values), and neither may name a pattern parameter; rational literals only.  A
generator index is read by the coefficient grammar and must reduce to an
integer affine form in the pattern parameters.  A directive word ends at any
whitespace; a name is declared once, ``window`` is the only option, and a
``name``, ``kind``, ``module`` or ``option window`` line comes at most once.
Example::

    name poly_poisson
    kind poisson
    family x arity 1 min 0
    product x[m] x[n] = x[m+n]
    bracket x[m] x[n] = (m*D + (m+n)*L) x[m+n-1]
    deform 1 x[p] x[q] = q*L x[p+q-1]
    nijenhuis x[p] = x[p+1]
    option window 4

Rules are matched concrete-entries-first, then family patterns; pairs of
declared generators with no matching rule are zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    KIND_LAWS,
    ConformalAlgebra,
    GenFamily,
    LinearRule,
    RULE_VAR,
    StructureRule,
)
from .symcore import GenIndex, LambdaPoly, Q, qify


class ManifestError(Exception):
    def __init__(self, message, line=None, col=None):
        loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")" \
            if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


class ManifestSyntaxError(ManifestError):
    pass


class UndeclaredGenerator(ManifestError):
    pass


class ArityMismatch(ManifestError):
    pass


class NonRationalLiteral(ManifestError):
    pass


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<int>\d+\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<sym>[\[\]()=+\-*/^,])")
_SPACE = re.compile(r"\s*")


def _tokenize(text: str, line_no: int, pos: int = 0):
    """The tokens of text[pos:], each (kind, value, column in text)."""
    out = []
    while (pos := _SPACE.match(text, pos).end()) < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ManifestSyntaxError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind, tok = m.lastgroup, m.group()
        if kind == "int":
            if "." in tok:
                raise NonRationalLiteral(f"decimal literal {tok!r}; rationals only",
                                         line_no, pos + 1)
            tok = int(tok)
        out.append((kind, tok, pos + 1))
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# expression values: polynomials in params/D/spectral vars, linear in one
# generator reference per additive term
# ---------------------------------------------------------------------------

GenRef = tuple[str, tuple]  # family, tuple of affine forms (const, ((param, coeff), ...))


@dataclass(frozen=True)
class XKey:
    pexp: tuple  # exponents of the bound parameters, in declaration order
    dpow: int
    sexp: tuple  # exponents of the spectral variables, in context order
    gen: GenRef | None


class XPoly:
    """Parsed expression value; at most one generator per additive term."""

    def __init__(self, terms: dict[XKey, Q] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @staticmethod
    def const(c, nparams, nspec):
        key = XKey((0,) * nparams, 0, (0,) * nspec, None)
        return XPoly({key: Fraction(c)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return XPoly(out)

    def __neg__(self):
        return XPoly({k: -v for k, v in self.terms.items()})

    def mul(self, other, line, col):
        """self * other; a product of two generators is a syntax error at
        other's line and column."""
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                if k1.gen is not None and k2.gen is not None:
                    raise ManifestSyntaxError("a term may contain at most one generator",
                                              line, col)
                gen = k1.gen or k2.gen
                key = XKey(tuple(a + b for a, b in zip(k1.pexp, k2.pexp)),
                           k1.dpow + k2.dpow,
                           tuple(a + b for a, b in zip(k1.sexp, k2.sexp)), gen)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return XPoly(out)


@dataclass
class RuleDef:
    """One rule line: two generator patterns and the parsed right-hand side."""

    patterns: tuple  # each: (family, tuple of str-or-int)
    params: tuple[str, ...]  # bound parameter names in order
    rhs: XPoly
    spec_vars: tuple[str, ...]
    text: str
    line: int

    def concrete(self) -> bool:
        return all(all(isinstance(p, int) for p in pat[1]) for pat in self.patterns)

    def match(self, gens: tuple[GenIndex, ...]) -> dict[str, int] | None:
        binding: dict[str, int] = {}
        for (fam, pats), g in zip(self.patterns, gens):
            if g.family != fam or len(pats) != len(g.params):
                return None
            for p, val in zip(pats, g.params):
                if isinstance(p, int):
                    if p != val:
                        return None
                elif p in binding:
                    if binding[p] != val:
                        return None
                else:
                    binding[p] = val
        return binding


def _affine_of(key_gen: GenRef, binding: dict[str, int]) -> tuple[int, ...]:
    fam, forms = key_gen
    out = []
    for const, coeffs in forms:
        v = const
        for name, c in coeffs:
            v += c * binding[name]
        out.append(v)
    return tuple(out)


def instantiate(rule_defs: list[RuleDef], families: dict[str, GenFamily],
                gens: tuple[GenIndex, ...], spec_vars: tuple[str, ...]) -> LambdaPoly | None:
    """Evaluate the first matching rule definition on a generator tuple."""
    chosen = None
    binding = None
    for rd in sorted(rule_defs, key=lambda r: not r.concrete()):
        b = rd.match(gens)
        if b is not None:
            chosen, binding = rd, b
            break
    if chosen is None:
        return LambdaPoly.zero(spec_vars)
    # aggregate coefficients per generator instance before the window check so
    # that cancellations like (1/2)(q^2 - q) at q=1 do not touch the window
    bucket: dict[tuple, Fraction] = {}
    for key, c in chosen.rhs.terms.items():
        coeff = c
        for name, e in zip(chosen.params, key.pexp):
            coeff *= Fraction(binding[name]) ** e
        if coeff == 0:
            continue
        fam, _ = key.gen
        params = _affine_of(key.gen, binding)
        bk = (fam, params, key.dpow, key.sexp)
        bucket[bk] = bucket.get(bk, Fraction(0)) + coeff
    data: dict = {}
    for (fam, params, dpow, sexp), coeff in bucket.items():
        if coeff == 0:
            continue
        if not families[fam].contains(params):
            return None  # a needed generator escapes the declared window
        data.setdefault(sexp, {})[GenIndex(fam, params), dpow] = qify(coeff)
    return LambdaPoly(spec_vars, data)


# ---------------------------------------------------------------------------
# the manifest document
# ---------------------------------------------------------------------------

@dataclass
class Manifest:
    name: str = "unnamed"
    kind: str = "poisson"
    families: dict[str, GenFamily] = field(default_factory=dict)
    product_defs: list[RuleDef] = field(default_factory=list)
    bracket_defs: list[RuleDef] = field(default_factory=list)
    deform_defs: dict[int, list[RuleDef]] = field(default_factory=dict)
    nijenhuis_defs: list[RuleDef] = field(default_factory=list)
    module: str = "adjoint"
    options: dict[str, int] = field(default_factory=dict)

    # -- builders
    def _mk_rule(self, kind: str, defs: list[RuleDef]) -> StructureRule:
        fams = self.families

        def fn(g1, g2):
            return instantiate(defs, fams, (g1, g2), (RULE_VAR,))

        return StructureRule(kind, fn)

    def algebra(self) -> ConformalAlgebra:
        return ConformalAlgebra(
            self.name, sorted(self.families.values(), key=lambda f: f.name),
            product=self._mk_rule("product", self.product_defs),
            bracket=self._mk_rule("bracket", self.bracket_defs),
            kind=self.kind,
        )

    def deformation(self):
        from .deform import DeformationSeries

        if not self.deform_defs:
            raise ManifestError("manifest declares no deformation terms")
        orders = sorted(self.deform_defs)
        for n, k in enumerate(orders, start=1):
            if k != n:  # at the first line of the first order past the gap
                raise ManifestError(f"deformation orders must be 1..N, got {orders}",
                                    self.deform_defs[k][0].line)
        rules = [self._mk_rule("product", self.deform_defs[k]) for k in orders]
        return DeformationSeries(self.algebra(), rules)

    def nijenhuis(self) -> LinearRule:
        if not self.nijenhuis_defs:
            raise ManifestError("manifest declares no nijenhuis map")
        fams = self.families
        defs = self.nijenhuis_defs

        def fn(g):
            v = instantiate(defs, fams, (g,), ())
            if v is None:
                return None
            return v.coefficient(())

        return LinearRule(fn)

    def serialize(self) -> str:
        lines = [f"name {self.name}", f"kind {self.kind}"]
        for fam in sorted(self.families.values(), key=lambda f: f.name):
            if fam.arity == 0:
                lines.append(f"generator {fam.name}")
            else:
                spec = f"family {fam.name} arity {fam.arity} min {fam.lo}"
                if fam.hi is not None:
                    spec += f" max {fam.hi}"
                lines.append(spec)
        for kind, defs in (("product", self.product_defs), ("bracket", self.bracket_defs)):
            for rd in defs:
                lines.append(f"{kind} {rd.text}")
        for k in sorted(self.deform_defs):
            for rd in self.deform_defs[k]:
                lines.append(f"deform {k} {rd.text}")
        for rd in self.nijenhuis_defs:
            lines.append(f"nijenhuis {rd.text}")
        if self.module != "adjoint":
            lines.append(f"module {self.module}")
        for k in sorted(self.options):
            lines.append(f"option {k} {self.options[k]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _ExprParser:
    def __init__(self, tokens, line_no, params, spec_vars, families):
        self.toks = tokens
        self.i = 0
        self.line = line_no
        self.params = list(params)
        self.spec = list(spec_vars)
        self.families = families

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ManifestSyntaxError("unexpected end of expression", self.line)
        self.i += 1
        return t

    def col(self):
        """The column of the next token, None at the end."""
        t = self.peek()
        return t[2] if t else None

    def expect_sym(self, s):
        t = self.next()
        if t[0] != "sym" or t[1] != s:
            raise ManifestSyntaxError(f"expected {s!r}, got {t[1]!r}", self.line, t[2])

    def _const(self, c):
        return XPoly.const(c, len(self.params), len(self.spec))

    def _mono(self, pexp=None, dpow=0, sexp=None, gen=None, c=1):
        key = XKey(tuple(pexp or [0] * len(self.params)), dpow,
                   tuple(sexp or [0] * len(self.spec)), gen)
        return XPoly({key: Fraction(c)})

    def parse(self) -> XPoly:
        v = self.expr()
        t = self.peek()
        if t is not None:
            raise ManifestSyntaxError(f"trailing input {t[1]!r}", self.line, t[2])
        return v

    def expr(self) -> XPoly:
        t = self.peek()
        neg = False
        if t and t[0] == "sym" and t[1] in "+-":
            self.next()
            neg = t[1] == "-"
        v = self.term()
        if neg:
            v = -v
        while True:
            t = self.peek()
            if t and t[0] == "sym" and t[1] in "+-":
                self.next()
                rhs = self.term()
                v = v + (-rhs if t[1] == "-" else rhs)
            else:
                return v

    def term(self) -> XPoly:
        v = self.factor()
        while True:
            t = self.peek()
            if t and t[0] == "sym" and t[1] == "*":
                self.next()
            elif not (t and (t[0] in ("int", "ident") or t[1] == "(")):
                return v  # neither '*' nor a juxtaposed factor follows
            col = self.col()
            v = v.mul(self.factor(), self.line, col)

    def factor(self) -> XPoly:
        col = self.col()
        base = self.atom()
        t = self.peek()
        if not (t and t[0] == "sym" and t[1] == "^"):
            return base
        self.next()
        e = self.next()
        if e[0] != "int":
            raise ManifestSyntaxError("exponent must be an integer", self.line, e[2])
        v = self._const(1)
        for _ in range(e[1]):
            v = v.mul(base, self.line, col)
        return v

    def atom(self) -> XPoly:
        t = self.next()
        if t[0] == "int":
            num = t[1]
            nxt = self.peek()
            if nxt and nxt[0] == "sym" and nxt[1] == "/":
                self.next()
                den = self.next()
                if den[0] != "int" or den[1] == 0:
                    raise NonRationalLiteral("denominator must be a nonzero integer",
                                             self.line, den[2])
                return self._const(Fraction(num, den[1]))
            return self._const(num)
        if t[0] == "sym" and t[1] == "(":
            v = self.expr()
            self.expect_sym(")")
            return v
        if t[0] == "ident":
            name = t[1]
            if name == "D":
                return self._mono(dpow=1)
            if name in self.spec:
                sexp = [0] * len(self.spec)
                sexp[self.spec.index(name)] = 1
                return self._mono(sexp=sexp)
            nxt = self.peek()
            if nxt and nxt[0] == "sym" and nxt[1] == "[":
                return self._genref(name, t[2])
            if name in self.params:
                pexp = [0] * len(self.params)
                pexp[self.params.index(name)] = 1
                return self._mono(pexp=pexp)
            if name in self.families:
                fam = self.families[name]
                if fam.arity != 0:
                    raise ArityMismatch(f"family {name!r} needs {fam.arity} indices",
                                        self.line, t[2])
                return self._mono(gen=(name, ()))
            raise UndeclaredGenerator(f"unknown symbol {name!r}", self.line, t[2])
        raise ManifestSyntaxError(f"unexpected token {t[1]!r}", self.line, t[2])

    def _genref(self, name, col) -> XPoly:
        if name not in self.families:
            raise UndeclaredGenerator(f"undeclared family {name!r}", self.line, col)
        fam = self.families[name]
        self.expect_sym("[")
        forms = []
        while True:
            forms.append(self._index())
            t = self.next()
            if t[0] == "sym" and t[1] == "]":
                break
            if not (t[0] == "sym" and t[1] == ","):
                raise ManifestSyntaxError("expected ',' or ']' in generator index",
                                          self.line, t[2])
        if len(forms) != fam.arity:
            raise ArityMismatch(
                f"family {name!r} has arity {fam.arity}, got {len(forms)} indices",
                self.line, col)
        return self._mono(gen=(name, tuple(forms)))

    def _index(self):
        """One generator index, an expression that must reduce to an integer
        affine form in the bound parameters: (const, ((param, coeff), ...))."""
        col = self.col()
        const, coeffs = 0, []
        for key, c in self.expr().terms.items():
            if key.gen or key.dpow or any(key.sexp) or sum(key.pexp) > 1 or c.denominator != 1:
                raise ManifestSyntaxError(
                    "a generator index must be an integer affine form in the pattern parameters",
                    self.line, col)
            if any(key.pexp):
                coeffs.append((self.params[key.pexp.index(1)], int(c)))
            else:
                const = int(c)
        return const, tuple(sorted(coeffs))


def _token(tokens, i, line_no):
    """tokens[i], or a located syntax error where the line ends early."""
    if i >= len(tokens):
        raise ManifestSyntaxError("unexpected end of line", line_no)
    return tokens[i]


def _parse_pattern(tokens, i, line_no, families, bound):
    """One generator pattern from tokens[i]; its parameter names are
    appended to `bound`, the names bound so far on the line."""
    t = _token(tokens, i, line_no)
    if t[0] != "ident":
        raise ManifestSyntaxError("expected a generator pattern", line_no, t[2])
    name = t[1]
    if name not in families:
        raise UndeclaredGenerator(f"undeclared family {name!r}", line_no, t[2])
    fam = families[name]
    i += 1
    params: list = []
    if i < len(tokens) and tokens[i][0] == "sym" and tokens[i][1] == "[":
        i += 1
        while True:
            t = _token(tokens, i, line_no)
            if t[0] not in ("ident", "int"):
                raise ManifestSyntaxError("pattern indices are names or integers",
                                          line_no, t[2])
            if t[1] in ("D", "L"):
                raise ManifestSyntaxError(f"{t[1]!r} is reserved; it cannot name a pattern "
                                          "parameter", line_no, t[2])
            if t[0] == "ident":
                if t[1] in bound:
                    raise ManifestSyntaxError(f"repeated pattern parameter {t[1]!r}",
                                              line_no, t[2])
                bound.append(t[1])
            params.append(t[1])
            i += 1
            t = _token(tokens, i, line_no)
            if t[0] == "sym" and t[1] == "]":
                i += 1
                break
            if not (t[0] == "sym" and t[1] == ","):
                raise ManifestSyntaxError("expected ',' or ']' in pattern", line_no, t[2])
            i += 1
    if len(params) != fam.arity:
        raise ArityMismatch(f"family {name!r} has arity {fam.arity}", line_no, t[2])
    return (name, tuple(params)), i


def _key_values(tokens, line_no):
    """The (key token, integer) pairs of a run of `key [-]integer` pairs."""
    out = []
    i = 0
    while i < len(tokens):
        k = tokens[i]
        if k[0] != "ident":
            raise ManifestSyntaxError("expected an option name", line_no, k[2])
        v = _token(tokens, i + 1, line_no)
        sign = 1
        if v[0] == "sym" and v[1] == "-":
            sign, i = -1, i + 1
            v = _token(tokens, i + 1, line_no)
        if v[0] != "int":
            raise ManifestSyntaxError("option values are integers", line_no, v[2])
        out.append((k, sign * v[1]))
        i += 2
    return out


def _parse_rule_line(tokens, line_no, families, npatterns) -> RuleDef:
    i = 0
    patterns, params = [], []
    for _ in range(npatterns):
        pat, i = _parse_pattern(tokens, i, line_no, families, params)
        patterns.append(pat)
    t = tokens[i] if i < len(tokens) else None
    if not (t and t[0] == "sym" and t[1] == "="):
        raise ManifestSyntaxError("expected '=' after pattern(s)", line_no,
                                  t[2] if t else None)
    i += 1
    spec_vars = ("L",) if npatterns == 2 else ()
    rhs_tokens = tokens[i:]
    if len(rhs_tokens) == 1 and rhs_tokens[0][0] == "int" and rhs_tokens[0][1] == 0:
        rhs = XPoly({})
    else:
        rhs = _ExprParser(rhs_tokens, line_no, params, spec_vars, families).parse()
        for key in rhs.terms:
            if key.gen is None:
                raise ManifestSyntaxError("every term needs exactly one generator",
                                          line_no)
    return RuleDef(tuple(patterns), tuple(params), rhs, spec_vars, "", line_no)


def _declare(man: Manifest, fam: GenFamily, line_no: int, col: int) -> None:
    """Add a family (a generator is one of arity 0); a name declared twice
    is an error at its column."""
    if fam.name in man.families:
        raise ManifestSyntaxError(f"family {fam.name!r} redeclared", line_no, col)
    man.families[fam.name] = fam


def _once(seen: dict[str, int], what: str, line_no: int, col: int) -> None:
    """Record a directive that may be given once; a second one is an error
    at its column, naming the first one's line."""
    if what in seen:
        raise ManifestSyntaxError(f"{what} given twice (first on line {seen[what]})",
                                  line_no, col)
    seen[what] = line_no


def parse(text: str) -> Manifest:
    man = Manifest()
    seen: dict[str, int] = {}  # a once-only directive -> the line that gave it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        start = code.index(line) + len(head)  # token columns count from the line's start
        if head in ("name", "kind", "module"):
            _once(seen, head, line_no, start - len(head) + 1)
        if head == "name":
            if not rest:
                raise ManifestSyntaxError("name needs a value", line_no)
            man.name = rest
        elif head == "kind":
            if rest not in KIND_LAWS:
                raise ManifestSyntaxError(f"unknown kind {rest!r}", line_no)
            man.kind = rest
        elif head == "family":
            toks = _tokenize(code, line_no, start)
            if not toks or toks[0][0] != "ident":
                raise ManifestSyntaxError("family needs a name", line_no)
            fname = toks[0][1]
            opts = {"arity": 1, "min": 0, "max": None}
            for k, v in _key_values(toks[1:], line_no):
                if k[1] not in opts:
                    raise ManifestSyntaxError(f"unknown family option {k[1]!r}",
                                              line_no, k[2])
                opts[k[1]] = v
            _declare(man, GenFamily(fname, opts["arity"], opts["min"], opts["max"]), line_no,
                     toks[0][2])
        elif head == "generator":
            toks = _tokenize(code, line_no, start)
            if len(toks) != 1 or toks[0][0] != "ident":
                raise ManifestSyntaxError("generator needs a single name", line_no)
            _declare(man, GenFamily(toks[0][1], 0), line_no, toks[0][2])
        elif head in ("product", "bracket"):
            toks = _tokenize(code, line_no, start)
            rd = _parse_rule_line(toks, line_no, man.families, 2)
            rd.text = rest
            (man.product_defs if head == "product" else man.bracket_defs).append(rd)
        elif head == "deform":
            toks = _tokenize(code, line_no, start)
            if not toks or toks[0][0] != "int":
                raise ManifestSyntaxError("deform needs an order", line_no)
            order = toks[0][1]
            rd = _parse_rule_line(toks[1:], line_no, man.families, 2)
            rd.text = rest.split(None, 1)[1]
            man.deform_defs.setdefault(order, []).append(rd)
        elif head == "nijenhuis":
            toks = _tokenize(code, line_no, start)
            rd = _parse_rule_line(toks, line_no, man.families, 1)
            rd.text = rest
            man.nijenhuis_defs.append(rd)
        elif head == "module":
            if rest != "adjoint":
                raise ManifestSyntaxError("only the adjoint module is declarable", line_no)
            man.module = rest
        elif head == "option":
            pairs = _key_values(_tokenize(code, line_no, start), line_no)
            if len(pairs) != 1:
                raise ManifestSyntaxError("option needs one key and an integer value", line_no)
            (k, v), = pairs
            if k[1] != "window":
                raise ManifestSyntaxError(f"unknown option {k[1]!r}", line_no, k[2])
            _once(seen, f"option {k[1]}", line_no, k[2])
            man.options[k[1]] = v
        else:
            raise ManifestSyntaxError(f"unknown directive {head!r}", line_no)
    return man


def parse_file(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
