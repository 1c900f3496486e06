import io
import os
import subprocess
import sys

import pytest

from conformal_kernel.algebra import check_poisson, suite_passes
from conformal_kernel.cli import main
from conformal_kernel.manifest import (
    ArityMismatch,
    ManifestError,
    ManifestSyntaxError,
    NonRationalLiteral,
    UndeclaredGenerator,
    parse,
    parse_file,
)
from conformal_kernel.report import render_poly
from conformal_kernel.symcore import DPoly, LambdaPoly, ModElement, gen

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")

EX = """
name demo
kind poisson
family x arity 1 min 0
product x[m] x[n] = x[m+n]
bracket x[m] x[n] = (m*D + (m+n)*L) x[m+n-1]
"""


class TestParser:
    def test_basic_algebra(self):
        man = parse(EX)
        alg = man.algebra()
        assert suite_passes(check_poisson(alg, window=3))

    def test_rule_values(self):
        man = parse(EX)
        alg = man.algebra()
        e = alg.bracket.entry(gen("x", 2), gen("x", 1))
        want = LambdaPoly.of(("·v",), ModElement.of(gen("x", 2), DPoly.d_power(1, 2)), (0,)) \
            + LambdaPoly.of(("·v",), ModElement.of(gen("x", 2), DPoly.const(3)), (1,))
        assert e == want

    def test_empty_generators_zero_algebra(self):
        # no family: the zero algebra, with no tuple to sweep, so no law
        # fails and none passes on nothing checked
        man = parse("name empty\nkind poisson\n")
        alg = man.algebra()
        assert alg.generators(2) == []
        assert {r.status for r in check_poisson(alg, window=2)} == {"inconclusive"}

    def test_undeclared_family_error(self):
        text = EX + "bracket y[m] x[n] = x[m+n]\n"
        with pytest.raises(UndeclaredGenerator) as e:
            parse(text)
        assert e.value.line == 7

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse("family x arity 2 min 0\nproduct x[m] x[n] = x[m+n]\n")

    def test_decimal_rejected(self):
        with pytest.raises(NonRationalLiteral):
            parse("family x arity 1 min 0\nproduct x[m] x[n] = 1.5 x[m+n]\n")

    def test_rational_literals(self):
        man = parse("family x arity 1 min 0\nproduct x[m] x[n] = (1/2) x[m+n]\n")
        e = man.algebra().product.entry(gen("x", 1), gen("x", 1))
        from fractions import Fraction

        assert e.coefficient((0,)) == ModElement.of(gen("x", 2)).scale(Fraction(1, 2))

    def test_term_without_generator_rejected(self):
        with pytest.raises(ManifestSyntaxError):
            parse("family x arity 1 min 0\nproduct x[m] x[n] = m*L\n")

    def test_concrete_entry_overrides_family_rule(self):
        text = EX + "bracket x[1] x[1] = 0\n"
        man = parse(text)
        alg = man.algebra()
        assert alg.bracket.entry(gen("x", 1), gen("x", 1)).is_zero()
        assert not alg.bracket.entry(gen("x", 2), gen("x", 1)).is_zero()

    def test_window_escape_below_family_min(self):
        text = "family x arity 1 min 1\nproduct x[m] x[n] = x[m+n-2]\n"
        man = parse(text)
        assert man.algebra().product.entry(gen("x", 1), gen("x", 1)) is None

    def test_roundtrip_serialize(self):
        man = parse_file(os.path.join(DEMOS, "ex2_17.alg"))
        man2 = parse(man.serialize())
        assert man2.serialize() == man.serialize()
        a1, a2 = man.algebra(), man2.algebra()
        for m in range(3):
            for n in range(3):
                assert a1.bracket.entry(gen("x", m), gen("x", n)) == \
                    a2.bracket.entry(gen("x", m), gen("x", n))

    def test_roundtrip_serialize_scaled_index(self):
        man = parse("family x arity 1 min 0\nproduct x[m] x[n] = m*L x[2*(m+1)]\n"
                    "deform 1\tx[p] x[q] = x[2*(p+q)]\n")
        man2 = parse(man.serialize())
        assert man2.serialize() == man.serialize()
        assert "deform 1 x[p] x[q] = x[2*(p+q)]\n" in man.serialize()
        assert man.algebra().product.entry(gen("x", 1), gen("x", 0)) == \
            LambdaPoly.of(("·v",), ModElement.of(gen("x", 4)), (1,))
        for m in range(3):
            for n in range(3):
                assert man.algebra().product.entry(gen("x", m), gen("x", n)) == \
                    man2.algebra().product.entry(gen("x", m), gen("x", n))

    def test_deformation_and_nijenhuis_sections(self):
        man = parse_file(os.path.join(DEMOS, "ex2_17.alg"))
        ds = man.deformation()
        assert ds.order == 2
        N = man.nijenhuis()
        assert N.entry(gen("x", 1)) == ModElement.of(gen("x", 2))


class TestIndexGrammar:
    """A generator index is read by the coefficient grammar and must reduce
    to an integer affine form in the pattern parameters."""

    HEAD = "name index\nkind poisson\nfamily x arity 1 min 0\ngenerator e\n"  # then line 5

    def entries(self, index):
        prod = parse(self.HEAD + f"product x[m] x[n] = x[{index}]\n").algebra().product
        return [prod.entry(gen("x", m), gen("x", n)) for m in range(4) for n in range(4)]

    def test_scaled_parameter_reads_alike(self):
        want = self.entries("2*m")
        assert want[3 * 4 + 1] == LambdaPoly.of(("·v",), ModElement.of(gen("x", 6)))
        assert self.entries("2m") == want
        assert self.entries("(m+m)") == want

    def test_affine_index_against_hand_value(self):
        prod = parse(self.HEAD + "product x[m] x[n] = x[-m+2*n+1]\n").algebra().product
        for m in range(3):
            for n in range(3):
                e = prod.entry(gen("x", m), gen("x", n))
                if -m + 2 * n + 1 < 0:
                    assert e is None
                else:
                    assert e == LambdaPoly.of(("·v",), ModElement.of(gen("x", -m + 2 * n + 1)))

    @pytest.mark.parametrize("line, at", [
        ("product x[m] x[n] = x[m n]", "m n]"),
        ("product x[m] x[n] = x[m^2]", "m^2]"),
        ("product x[m] x[n] = x[1/2]", "1/2]"),
        ("product x[m] x[n] = x[L]", "L]"),
        ("product x[m] x[n] = x[D]", "D]"),
        ("product x[m] x[n] = x[e]", "e]"),
        ("product x[L] x[n] = L x[L+n]", "L]"),
        ("product x[m] x[D] = x[m]", "D]"),
        ("product x[m] x[n] = x[m] x[n]", "x[n]"),
        ("product x[m] x[n] = x[m]^2", "x[m]^"),
    ])
    def test_rejected_at_line_and_column(self, tmp_path, capsys, line, at):
        with pytest.raises(ManifestError) as e:
            parse(self.HEAD + line + "\n")
        col = line.rindex(at) + 1
        assert (e.value.line, e.value.col) == (5, col)
        path = tmp_path / "bad.alg"
        path.write_text(self.HEAD + line + "\n")
        assert main(["check", str(path), "--window", "1"]) == 3
        assert capsys.readouterr().err.endswith(f"(line 5, col {col})\n")

    @pytest.mark.parametrize("line", ["option window 4 5", "option a b 4", "option window"])
    def test_option_takes_one_signed_pair(self, line):
        with pytest.raises(ManifestSyntaxError) as e:
            parse(self.HEAD + line + "\n")
        assert e.value.line == 5

    def test_signed_option_and_family_values(self):
        man = parse("family y arity 1 min -2 max 1\noption window -1\n")
        assert (man.families["y"].lo, man.families["y"].hi) == (-2, 1)
        assert man.options == {"window": -1}


class TestDirectiveLines:
    """A directive word ends at any whitespace, and a declaration that the
    engine would drop or never read is a located error (exit 3)."""

    HEAD = "name lines\nkind poisson\nfamily x arity 1 min 0\n"  # then line 4

    def test_tab_after_the_directive(self):
        man = parse(self.HEAD + "product\tx[m] x[n] = x[m+n]\n"
                    "bracket \t x[m] x[n] = (m*D + (m+n)*L) x[m+n-1]\n")
        assert "product x[m] x[n] = x[m+n]\n" in man.serialize()
        assert "bracket x[m] x[n] = (m*D + (m+n)*L) x[m+n-1]\n" in man.serialize()
        assert suite_passes(check_poisson(man.algebra(), window=2))

    @pytest.mark.parametrize("line, message, at", [
        ("product x[m] x[m] = x[m]", "repeated pattern parameter 'm'", "m] ="),
        ("generator x", "family 'x' redeclared", "x"),
        ("generator e\ngenerator e", "family 'e' redeclared", "e"),
        ("generator e\nfamily e arity 1 min 0", "family 'e' redeclared", "e arity"),
        ("option windw 1", "unknown option 'windw'", "windw"),
        ("name other", "name given twice (first on line 1)", "name"),
        ("kind lie", "kind given twice (first on line 2)", "kind"),
        ("module adjoint\nmodule adjoint", "module given twice (first on line 4)", "module"),
        ("option window 1\n  option window 2", "option window given twice (first on line 4)",
         "window"),
    ])
    def test_rejected_at_line_and_column(self, tmp_path, capsys, line, message, at):
        text = self.HEAD + line + "\nproduct x[m] x[n] = x[m+n]\n"
        last = line.split("\n")[-1]
        where = (4 + line.count("\n"), last.rindex(at) + 1)
        with pytest.raises(ManifestSyntaxError) as e:
            parse(text)
        assert str(e.value).startswith(message)
        assert (e.value.line, e.value.col) == where
        path = tmp_path / "bad.alg"
        path.write_text(text)
        assert main(["check", str(path), "--window", "1"]) == 3
        assert capsys.readouterr().err.endswith(f"(line {where[0]}, col {where[1]})\n")


    @pytest.mark.parametrize("command", ["deform", "semiclassical"])
    def test_a_gap_in_the_deformation_orders_names_its_line(self, tmp_path, capsys, command):
        # demos/ex2_17.alg with its order-1 line written as order 3: orders
        # [2, 3], and the first past the gap is order 2, on line 12
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read().replace("deform 1 ", "deform 3 ")
        assert text.splitlines()[11].startswith("deform 2 ")
        with pytest.raises(ManifestError) as e:
            parse(text).deformation()
        assert e.value.line == 12
        path = tmp_path / "gap.alg"
        path.write_text(text)
        assert main([command, str(path), "--window", "1"]) == 3
        assert capsys.readouterr().err == (
            "error: deformation orders must be 1..N, got [2, 3] (line 12)\n")


class TestRenderer:
    def test_poly_rendering_deterministic(self):
        p = LambdaPoly.of(("L", "M"), ModElement.of(gen("x", 1), DPoly.d_power(1, 2)), (1, 0)) \
            + LambdaPoly.of(("L", "M"), ModElement.of(gen("x", 0), DPoly.const(-3)), (0, 2))
        assert render_poly(p) == "2*D*L*x[1] - 3*M^2*x[0]"

    def test_zero(self):
        assert render_poly(LambdaPoly.zero(("L",))) == "0"


class TestCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = main(list(argv))
        finally:
            sys.stdout = old
        return code, out.getvalue()

    def test_check_passes(self):
        code, text = self.run_cli("check", os.path.join(DEMOS, "ex2_17.alg"), "--window", "3")
        assert code == 0
        assert "[summary]" in text and "status=pass" in text

    def test_swapped_fails_with_witnesses(self):
        code, text = self.run_cli("check", os.path.join(DEMOS, "ex2_17_swapped.alg"),
                                  "--window", "2")
        assert code == 1
        assert "name=jacobi status=fail" in text
        assert "[witness] check=jacobi" in text

    def test_missing_file(self):
        code = main(["check", "no_such_file.alg"])
        assert code == 3

    @pytest.mark.parametrize("line", ["product x[m", "product x[m]", "deform 1",
                                      "family y min -"])
    def test_truncated_line_is_a_located_syntax_error(self, tmp_path, capsys, line):
        # a line cut short is a parse error naming its line (exit 3), not a
        # traceback through exit 1, which means a check failed
        with pytest.raises(ManifestSyntaxError) as e:
            parse(EX + line + "\n")
        assert e.value.line == 7
        path = tmp_path / "cut.alg"
        path.write_text(EX + line + "\n")
        assert main(["check", str(path), "--window", "1"]) == 3
        assert capsys.readouterr().err == "error: unexpected end of line (line 7)\n"

    def test_reports_byte_identical(self):
        a = self.run_cli("check", os.path.join(DEMOS, "ex2_17.alg"), "--window", "2")
        b = self.run_cli("check", os.path.join(DEMOS, "ex2_17.alg"), "--window", "2")
        assert a == b

    def test_out_flag(self, tmp_path):
        out = tmp_path / "report.txt"
        code, text = self.run_cli("check", os.path.join(DEMOS, "mat2.alg"),
                                  "--out", str(out))
        assert code == 0
        assert text == ""
        assert "[summary]" in out.read_text()

    def test_semiclassical_command(self):
        code, text = self.run_cli("semiclassical", os.path.join(DEMOS, "ex2_17.alg"),
                                  "--window", "2")
        assert code == 0
        assert "jacobi" in text


class TestInconclusiveExit:
    def test_window_escape_exit_code(self, tmp_path):
        # a capped family whose product escapes the declared bound: honest
        # inconclusive coverage, exit status 2
        text = (
            "name capped\n"
            "kind poisson\n"
            "family x arity 1 min 0 max 2\n"
            "product x[m] x[n] = x[m+n]\n"
        )
        path = tmp_path / "capped.alg"
        path.write_text(text)
        code = main(["check", str(path), "--window", "2"])
        assert code == 2

    def test_cohomology_escapes_are_counted_not_raised(self, tmp_path, capsys):
        # capping the family at x[3] makes the random cochains and the module
        # action reach outside the rule window; every such tuple is counted
        # as escaped instead of raising
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        assert "family x arity 1 min 0\n" in text
        path = tmp_path / "ex2_17_capped.alg"
        path.write_text(text.replace("family x arity 1 min 0\n",
                                     "family x arity 1 min 0 max 3\n"))
        code = main(["cohomology", str(path), "--d2-samples", "2"])
        checks = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[check]")]
        status = {line.split()[1][5:]: line.split()[2][7:] for line in checks}
        assert len(status) == 17
        assert all("escaped=0" not in line for line in checks)
        # the bare D-compatibility law fails on the tuples it checks, by
        # design (criterion 5b), so the run exits 1; everything else is
        # inconclusive, which alone would exit 2
        assert status.pop("action_dtilde_bare_law") == "fail"
        assert set(status.values()) == {"inconclusive"}
        assert code == 1

    @pytest.mark.parametrize("window, escaped", [(2, 10), (3, 44)])
    def test_deform_extension_escapes_are_counted_not_raised(self, tmp_path, capsys,
                                                             window, escaped):
        # on ex2_17 capped at x[3], products past the cap escape inside d_h
        # of the ansatz elements; those triples are left out of the solve
        # and counted, and the run is inconclusive
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "ex2_17_capped.alg"
        path.write_text(text.replace("family x arity 1 min 0\n",
                                     "family x arity 1 min 0 max 3\n"))
        code = main(["deform", str(path), "--window", str(window)])
        out = capsys.readouterr().out
        line, = [ln for ln in out.splitlines() if "name=obstruction_and_extension" in ln]
        assert "status=inconclusive" in line
        assert f'note="extension solve: {escaped} tuples escaped the rule window"' in line
        assert code == 2

    def test_deform_extension_with_every_tuple_escaped(self, tmp_path, capsys):
        # on ex2_17 cut to the one generator x[1], the window-1 triple
        # escapes: no equation is left, and no extension may be claimed
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "ex2_17_x1.alg"
        path.write_text(text.replace("family x arity 1 min 0\n",
                                     "family x arity 1 min 1 max 1\n"))
        code = main(["deform", str(path), "--window", "1"])
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "name=obstruction_and_extension" in ln]
        assert "status=inconclusive" in line
        assert 'note="extension not determined: every tuple escaped the rule window"' in line
        assert "recovered" not in line
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "deform", "coeff", "nijenhuis", "semiclassical"])
    def test_empty_window_is_inconclusive(self, tmp_path, capsys, command):
        # a family that starts at x[5] leaves no tuple in window 1: every
        # command exits 2, no report passes on nothing but a declared skip,
        # and nothing raises
        with open(os.path.join(DEMOS, "ex2_17.alg"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "ex2_17_min5.alg"
        path.write_text(text.replace("family x arity 1 min 0\n", "family x arity 1 min 5\n"))
        code = main([command, str(path), "--window", "1", "--modes=-1..1"])
        lines = check_lines(capsys.readouterr().out)
        assert lines
        assert [ln for ln in lines if "status=pass checked=0" in ln and "skipped:" not in ln] == []
        if command == "deform":
            assert any('note="extension not determined: no tuple in the window"' in ln
                       for ln in lines)
        if command == "coeff":
            line, = [ln for ln in lines if "name=closed_form_comparison" in ln]
            assert 'note="no mode pair was compared"' in line
        assert code == 2


def check_lines(text):
    return [line for line in text.splitlines() if line.startswith("[check]")]


class TestCohomologyFamily:
    def test_renamed_family_is_exercised(self, tmp_path, capsys):
        # random cochains and tuples are drawn on the algebra's own family:
        # renaming x to y changes no status or count, and the bare D-law
        # still fails (criterion 5b) instead of passing on absent generators
        path = os.path.join(DEMOS, "ex2_17.alg")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        renamed = tmp_path / "ex2_17_y.alg"
        renamed.write_text(text.replace("family x ", "family y ").replace("x[", "y["))
        argv = ["--d2-samples", "2", "--seed", "7"]
        code_x = main(["cohomology", path, *argv])
        want = check_lines(capsys.readouterr().out)
        code_y = main(["cohomology", str(renamed), *argv])
        got = check_lines(capsys.readouterr().out)
        assert code_x == code_y == 1
        assert len(got) == 17 and got == want
        assert any("name=action_dtilde_bare_law status=fail" in line for line in got)


class TestNijenhuisCoverage:
    def test_fgv_cocycle_sweeps_whole_window(self, capsys):
        code = main(["nijenhuis", os.path.join(DEMOS, "ex2_17.alg"), "--window", "3"])
        checked = {line.split()[1][5:]: int(line.split()[3][8:])
                   for line in check_lines(capsys.readouterr().out)}
        assert code == 0
        assert checked["cross_product_cocycle"] == 4 ** 3
        assert checked["fgv_two_cocycle"] == 3 * checked["cross_product_cocycle"]
