import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import cli
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import spencer as sp
from jetforge import symbols as sy
from jetforge import symexpr as sx

WAVE = """\
# scalar wave operator on the plane
base m = 2;
fiber n = 1;
order k = 2;
operator h = u[(2,0)] - u[(0,2)];
query integrability();
query spencer(pmax=2, qmax=4);
"""

KG = """\
base m = 2;
fiber n = 1;
order k = 2;
metric { g[1][1] = 1 - x2^2/4; g[2][2] = -1 - x1^2/4; }
operator h = klein_gordon(F1=1, F2=1, K=z^3);
query integrability();
query solve(5);
query codim(1);
"""

DEGENERATE = """\
base m = 2;
fiber n = 1;
order k = 2;
operator h = u[(1,0)] + u[(0,1)];
"""

PARAMS = """\
base m = 2;
fiber n = 1;
order k = 1;
param c = 3/2;
operator h = u[(1,0)] - c*u[(0,1)];
"""


def _flags(**kw):
    return cli.CliFlags(**kw)


def test_parse_minimal_file():
    spec = cli.parse_problem_file(WAVE)
    assert (spec.m, spec.n, spec.k) == (2, 1, 2)
    assert spec.operator_kind == "expr"
    assert len(spec.operator_exprs) == 1
    assert [q.name for q in spec.queries] == ["integrability", "spencer"]
    assert spec.queries[1].arg_dict() == {"pmax": 2, "qmax": 4}
    h = spec.operator
    assert h.order == 2


def test_parse_metric_and_kg_operator():
    spec = cli.parse_problem_file(KG)
    assert spec.operator_kind == "klein_gordon"
    assert spec.metric is not None
    assert spec.metric.m == 2
    h = spec.operator
    assert h.order == 2
    assert spec.queries[1].args == (5,)


_KG_METRIC = "metric { g[1][1] = 1 - x2^2/4; g[2][2] = -1 - x1^2/4; }"


@pytest.mark.parametrize("metric, message", [
    ("metric { g[1][1] = 1; g[2][2] = -1; g[3][3] = -1; }",
     "error: metric index g[3][3] is outside 1..2"),
    # index 0 must not reach g[2][2] through Python's index -1
    ("metric { g[0][0] = 5; g[1][1] = 1; g[2][2] = -1; }",
     "error: metric index g[0][0] is outside 1..2"),
    ("metric { g[1][1] = 1; g[2][2] = -1; g[1][1] = 2; }",
     "error: metric entry g[1][1] given twice"),
], ids=["above_m", "zero", "repeated"])
def test_main_refuses_bad_metric_indices(tmp_path, capsys, metric, message):
    path = tmp_path / "bad_metric.jf"
    path.write_text(KG.replace(_KG_METRIC, metric))
    assert cli.main(["integrability", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_parse_refuses_a_repeated_metric_entry_at_its_statement():
    text = KG.replace(_KG_METRIC, "metric { g[1][1] = 1; g[2][2] = -1; g[2][2] = -2; }")
    with pytest.raises(sx.ParseError) as exc:
        cli.parse_problem_file(text)
    assert "g[2][2] given twice" in str(exc.value)
    assert exc.value.pos == text.index("g[2][2] = -2")
    # both triangles of an off-diagonal entry are still one entry each
    spec = cli.parse_problem_file(
        KG.replace(_KG_METRIC, "metric { g[1][1] = 2; g[1][2] = x1; g[2][1] = x1; g[2][2] = -1; }"))
    assert spec.metric.entries[0][1] == spec.metric.entries[1][0] == sx.base(1)


_CHART = "base m = 2;\nfiber n = 1;\norder k = 2;\n"


@pytest.mark.parametrize("text, message", [
    ("base m = ;\nfiber n = 1;\norder k = 2;\noperator h = u[(2,0)];\n",
     "expected an integer, got '' (line 1, col 10)"),
    # a comment inside the block is blanked, so its ';' ends no entry
    (_CHART + "metric {  # curved; g[1][1] = 0;\n  g[1][1] = 1;\n  g[2][2] = -1 + y;\n}\n"
     "operator h = klein_gordon(F1=1, F2=1, K=z^3);\n",
     "undeclared identifier 'y' in '-1 + y' (line 6, col 18)"),
    (_CHART + "operator h = u[(2,0)] - u[(0,2)]  # the wave part\n    + w;\n",
     "undeclared identifier 'w' in 'u[(2,0)] - u[(0,2)] + w' (line 5, col 7)"),
    (_CHART + "operator h = u[(2,0)], u[(0,2)] + u[(3,0)];\n",
     "jet index (3,0) exceeds order 2 in 'u[(0,2)] + u[(3,0)]' (line 4, col 35)"),
    (_CHART + "metric { g[1][1] = 1; g[2][2] = -1; }\n"
     "operator h = klein_gordon(F1=1, F2 = 1 + q, K=z^3);\n",
     "undeclared identifier 'q' in '1 + q' (line 5, col 42)"),
    (_CHART + "param c = 3/;\noperator h = u[(2,0)] - c*u[(0,2)];\n",
     "unexpected token 'end' in '3/' (line 4, col 13)"),
    (_CHART + "operator h = u[(2,0)];\nquery prolong(1);\nquery spencer(pmax=2, qmax= 4x);\n",
     "expected an integer, got '4x' (line 6, col 29)"),
    (_CHART + "metric { g[1][1] = 1; g[2][2] = -1; }\n"
     "operator h = klein_gordon(F1=1,  F3 = 2);\n",
     "unknown klein_gordon field 'F3' (line 5, col 34)"),
    (_CHART + "metric g[1][1] = 1;\noperator h = u[(2,0)];\n",
     "metric block must be '{ ... }' (line 4, col 8)"),
    (_CHART + "metric { g[1][1] = 1; g[2][2] = -1; }\noperator h = klein_gordon F1=1;\n",
     "klein_gordon takes (F1=..., F2=..., K=...) (line 5, col 27)"),
    # a parameter is a constant: a(x1, x2) once parsed to it, and a(x1)
    # was accepted where a(x2) was refused
    (_CHART + "param a = 2;\noperator h = u[(2,0)] - a(x1)*u[(0,2)];\n",
     "parameter 'a' takes no arguments in 'u[(2,0)] - a(x1)*u[(0,2)]' (line 5, col 25)"),
    (_CHART + "param a = 2;\noperator h = u[(2,0)] - a(x2)*u[(0,2)];\n",
     "parameter 'a' takes no arguments in 'u[(2,0)] - a(x2)*u[(0,2)]' (line 5, col 25)"),
    (_CHART + "param a = 2;\noperator h = u[(2,0)] - 2*a(x1, x2)*u[(0,2)];\n",
     "parameter 'a' takes no arguments in 'u[(2,0)] - 2*a(x1, x2)*u[(0,2)]' (line 5, col 27)"),
    # a negative query argument, by keyword or by position, at its value
    (_CHART + "operator h = u[(2,0)];\nquery prolong(l=-1);\n",
     "argument 'l' of query prolong must be >= 0, got -1 (line 5, col 17)"),
    (_CHART + "operator h = u[(2,0)];\nquery codim(l=-2);\n",
     "argument 'l' of query codim must be >= 0, got -2 (line 5, col 15)"),
    (_CHART + "operator h = u[(2,0)];\nquery spencer(pmax=-1);\n",
     "argument 'pmax' of query spencer must be >= 0, got -1 (line 5, col 20)"),
    (_CHART + "operator h = u[(2,0)];\nquery tower(levels=-1);\n",
     "argument 'levels' of query tower must be >= 0, got -1 (line 5, col 20)"),
    (_CHART + "operator h = u[(2,0)];\nquery solve(N=-1);\n",
     "argument 'N' of query solve must be >= 0, got -1 (line 5, col 15)"),
    (_CHART + "operator h = u[(2,0)];\nquery prolong( -3);\n",
     "argument 'l' of query prolong must be >= 0, got -3 (line 5, col 16)"),
    # a blank item of a comma list was once dropped: spencer(,3) ran with
    # pmax = 3, spencer(1,,2) as spencer(1, 2), and the others were accepted
    (_CHART + "operator h = u[(2,0)];\nquery spencer(,3);\n",
     "blank item in a comma-separated list (line 5, col 15)"),
    (_CHART + "operator h = u[(2,0)];\nquery spencer(1,,2);\n",
     "blank item in a comma-separated list (line 5, col 17)"),
    (_CHART + "operator h = u[(2,0)];\nquery spencer(1, , 2);\n",
     "blank item in a comma-separated list (line 5, col 18)"),
    (_CHART + "operator h = u[(2,0)];\nquery prolong(1,);\n",
     "blank item in a comma-separated list (line 5, col 17)"),
    (_CHART + "operator h = u[(2,0)],;\n",
     "blank item in a comma-separated list (line 4, col 23)"),
    (_CHART + "metric { g[1][1] = 1; g[2][2] = -1; }\noperator h = klein_gordon(F1=1,);\n",
     "blank item in a comma-separated list (line 5, col 32)"),
], ids=["chart", "metric_entry", "operator_after_comment", "second_component",
        "klein_gordon_field", "param", "query_integer", "klein_gordon_key", "metric_block",
        "klein_gordon_arguments", "param_call_x1", "param_call_x2", "param_call_base_point",
        "negative_prolong", "negative_codim", "negative_spencer", "negative_tower",
        "negative_solve", "negative_positional", "blank_first_argument",
        "blank_middle_argument", "blank_spaced_argument", "blank_last_argument",
        "blank_last_component", "blank_last_klein_gordon_field"])
def test_main_locates_a_parse_error_once_at_its_token(tmp_path, capsys, text, message):
    path = tmp_path / "bad.jf"
    path.write_text(text)
    assert cli.main(["symbol", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: %s\n" % message
    assert out.out == ""


@pytest.mark.parametrize("text, message", [
    ("base m = 2;\nfiber n = -1;\norder k = 2;\noperator h = 1;\n",
     "fiber n must be >= 1, got -1 (line 2, col 11)"),
    ("base m = -1;\nfiber n = 1;\norder k = 2;\noperator h = 1;\n",
     "base m must be >= 1, got -1 (line 1, col 10)"),
    ("base m = 0;\nfiber n = 1;\norder k = 2;\noperator h = 1;\n",
     "base m must be >= 1, got 0 (line 1, col 10)"),
    ("base m = 2;\nfiber n = 1;\norder k =  -1;\noperator h = 1;\n",
     "order k must be >= 0, got -1 (line 3, col 12)"),
    ("base m = 2;\nbase m = 3;\nfiber n = 1;\norder k = 2;\noperator h = u[(2,0)];\n",
     "'base m' declared twice (line 2, col 1)"),
    (_CHART + "fiber n = 2;\noperator h = u[(2,0)];\n",
     "'fiber n' declared twice (line 4, col 1)"),
    (_CHART + "order k = 3;\noperator h = u[(2,0)];\n",
     "'order k' declared twice (line 4, col 1)"),
    (_CHART + "operator h = u[(2,0)];\n  operator h = u[(0,2)];\n",
     "'operator h' declared twice (line 5, col 3)"),
], ids=["fiber_negative", "base_negative", "base_zero", "order_negative", "base_twice",
        "fiber_twice", "order_twice", "operator_twice"])
def test_main_refuses_a_bad_chart_or_a_repeated_declaration_at_its_token(
        tmp_path, capsys, text, message):
    path = tmp_path / "bad.jf"
    path.write_text(text)
    for command in cli.COMMANDS:
        assert cli.main([command, str(path)]) == 2
        out = capsys.readouterr()
        assert out.err == "error: %s\n" % message
        assert out.out == ""
    with pytest.raises(cli.ParseError):
        cli.parse_problem_file(text)


_KG_HEAD = _CHART + "metric { g[1][1] = 1; g[2][2] = -1; }\n"


@pytest.mark.parametrize("text, message", [
    (_CHART + "param c = 1;\nparam c = 4;\noperator h = u[(2,0)] - c*u[(0,2)];\n",
     "'param c' declared twice (line 5, col 7)"),
    (_CHART + "param x1 = 9/4;\noperator h = u[(2,0)] - x1*u[(0,2)];\n",
     "param name 'x1' is taken by a base coordinate (line 4, col 7)"),
    (_CHART + "param  u = 2;\noperator h = u[(2,0)] - u[(0,2)];\n",
     "param name 'u' is taken by the fiber coordinate (line 4, col 8)"),
    (_CHART + "param sin = 2;\noperator h = u[(2,0)] - sin(x1)*u[(0,2)];\n",
     "param name 'sin' is taken by a registered primitive (line 4, col 7)"),
    (_KG_HEAD + "param z = 2;\noperator h = klein_gordon(F1=0, F2=1, K=z^3);\n",
     "param name 'z' is taken by the argument of klein_gordon's K (line 5, col 7)"),
    (_KG_HEAD + "operator h = klein_gordon(F1=0, F2=1, K=z^3);\nparam z = 2;\n",
     "param name 'z' is taken by the argument of klein_gordon's K (line 6, col 7)"),
], ids=["repeated", "base_coordinate", "fiber_coordinate", "primitive", "z_before_K",
        "z_after_K"])
def test_main_refuses_a_param_name_that_means_something_else(tmp_path, capsys, text, message):
    # each of these once parsed to a wrong operator: the coordinate or
    # the primitive won over the parameter, or the parameter over K's
    # argument or an earlier parameter of its name
    path = tmp_path / "bad.jf"
    path.write_text(text)
    assert cli.main(["integrability", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: %s\n" % message
    assert out.out == ""


def test_a_param_may_use_the_names_the_parser_leaves_free():
    # z is free where K does not use it, and u1 or x name no coordinate
    spec = cli.parse_problem_file(
        _KG_HEAD + "param z = 2;\noperator h = klein_gordon(F1=z, F2=1, K=1);\n")
    assert spec.kg_fields[0] == sx.as_expr(2)
    spec = cli.parse_problem_file(
        _CHART + "param x = 2;\nparam u1 = 3;\noperator h = u[(2,0)] - x*u1*u[(0,2)];\n")
    assert spec.operator.components[0] == sx.jet(1, (2, 0)) - 6 * sx.jet(1, (0, 2))


def test_parse_param_macro_substitution():
    spec = cli.parse_problem_file(PARAMS)
    h = spec.operator
    vals = {sx.BaseVar(1): Q(0), sx.BaseVar(2): Q(0),
            sx.JetVar(1, (0, 0)): Q(0),
            sx.JetVar(1, (1, 0)): Q(3), sx.JetVar(1, (0, 1)): Q(2)}
    got = sx.evaluate(h.components[0], vals, exact=True)
    assert got == Q(3) - Q(3, 2) * Q(2)


def test_parse_decimal_literals_set_float_flag():
    text = WAVE.replace("u[(0,2)]", "0.5*u[(0,2)]")
    spec = cli.parse_problem_file(text)
    assert spec.float_literals


def test_parse_errors():
    with pytest.raises(cli.ParseError):
        cli.parse_problem_file("base m = two;\nfiber n = 1;\norder k = 1;\noperator h = u[(1,0)];")
    with pytest.raises(cli.ProblemError):
        cli.parse_problem_file("base m = 2;\nfiber n = 1;\norder k = 2;\noperator h = u[(1,0)];\nquery bogus();")
    with pytest.raises(cli.ProblemError):
        cli.parse_problem_file("base m = 2;\nfiber n = 1;\norder k = 2;")
    # jet order beyond the declared k is a syntax-level rejection
    with pytest.raises((cli.ParseError, sx.ExprError)):
        cli.parse_problem_file("base m = 2;\nfiber n = 1;\norder k = 1;\noperator h = u[(2,0)];")


def test_query_filtering_and_empty_report():
    spec = cli.parse_problem_file(WAVE)
    rep = cli.run_command(spec, "spencer", _flags())
    assert [r.query for r in rep.results] == ["spencer"]
    rep2 = cli.run_command(spec, "solve", _flags())
    assert rep2.results == []
    assert rep2.passed


def test_default_query_synthesized_without_query_section():
    spec = cli.parse_problem_file(DEGENERATE.replace(
        "u[(1,0)] + u[(0,1)]", "u[(2,0)] - u[(0,2)]"))
    rep = cli.run_command(spec, "integrability", _flags())
    assert [r.query for r in rep.results] == ["integrability"]
    assert rep.passed


def test_run_command_failure_reported_not_raised():
    spec = cli.parse_problem_file(DEGENERATE)
    rep = cli.run_command(spec, "integrability", _flags())
    assert not rep.passed
    assert rep.results[0].data.get("error") or rep.results[0].notes


@pytest.mark.parametrize("query, command, args", [
    ("solve(1)", "solve", {"N": 1}),
    ("prolong(-1)", "prolong", {"l": -1}),
    ("codim(-1)", "integrability", {"l": -1}),
    ("tower(-1)", "tower", {"levels": -1}),
    ("spencer(1, -1)", "spencer", {"pmax": 1, "qmax": -1}),
    ("spencer(-1)", "spencer", {"pmax": -1, "qmax": 4}),
])
def test_failed_query_names_positional_arguments(query, command, args):
    # a failed query reports its arguments under the names a successful
    # one uses, positional ones included; the parser refuses a negative
    # argument, so the query is built as a library caller builds one
    name, _, rest = query.partition("(")
    q = cli.Query(name, tuple(int(a) for a in rest[:-1].split(",")))
    spec = dataclasses.replace(cli.parse_problem_file(WAVE.split("query")[0]), queries=(q,))
    rep = cli.run_command(spec, command, _flags())
    [r] = rep.results
    assert not r.passed and "error" in r.data
    assert r.args == args


def test_failed_solve_reports_its_order_from_the_command_line(capsys):
    path = os.path.join(CORPUS_DIR, "params.jf")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("query solve(4);", "query solve(1);")
    rep = cli.run_command(cli.parse_problem_file(text), "solve", _flags())
    [r] = rep.results
    assert r.data == {"error": "truncation order N = 1 is below the seed's order 2"}
    assert r.args == {"N": 1}


def test_json_reports_are_byte_identical():
    spec = cli.parse_problem_file(KG)
    flags = _flags(seed=3, samples=4)
    a = cli.emit_report(cli.run_command(spec, "integrability", flags), "json")
    b = cli.emit_report(cli.run_command(spec, "integrability", flags), "json")
    assert a == b
    obj = json.loads(a)
    assert obj["schema"] == cli.SCHEMA
    assert obj["passed"] is True


def _written(v):
    """The value v as the report writer writes it, read back."""
    out = []
    cli._write_json(v, out, "")
    return json.loads("".join(out))


def test_jsonable_fractions_and_floats():
    assert _written(Q(1, 3)) == "1/3"
    assert _written(0.5) == repr(0.5)
    assert _written({"a": (Q(2), 1)}) == {"a": ["2", 1]}


def test_text_report_rendering():
    spec = cli.parse_problem_file(WAVE)
    rep = cli.run_command(spec, "integrability", _flags())
    text = cli.emit_report(rep, "text")
    assert "[PASS]" in text
    assert "integrability" in text
    spec_bad = cli.parse_problem_file(DEGENERATE)
    bad = cli.emit_report(cli.run_command(spec_bad, "symbol", _flags()), "text")
    assert "[FAIL]" in bad


def test_format_problem_round_trip_fixed_point():
    for text in (WAVE, KG, PARAMS):
        spec = cli.parse_problem_file(text)
        printed = cli.format_problem(spec)
        spec2 = cli._parse.__wrapped__(printed)
        assert cli.format_problem(spec2) == printed


_PARAM_NAMES = ("a", "b", "c")


def _rational_text(draw):
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return "(%s)" % c


def _polynomial_text(draw, atoms, min_factors=0):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(st.sampled_from(atoms), min_size=min_factors, max_size=3)) if atoms else []
        terms.append("*".join([_rational_text(draw)] + factors))
    return " + ".join(terms)


@st.composite
def _problem_text(draw):
    kg = draw(st.booleans())
    m = draw(st.integers(1, 2 if kg else 3))
    n, k = (1, 2) if kg else (draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    xs = ["x%d" % i for i in range(1, m + 1)]
    lines = ["base m = %d;" % m, "fiber n = %d;" % n, "order k = %d;" % k]
    if kg:
        # a diagonal metric whose entries have nonzero constant terms is
        # invertible
        entries = []
        for i in range(1, m + 1):
            c = draw(st.sampled_from(("1", "-1", "2", "-1/2")))
            entries.append("g[%d][%d] = %s + %s;" % (i, i, c, _polynomial_text(draw, xs, 1)))
        lines.append("metric { %s }" % " ".join(entries))
    params = draw(st.lists(st.sampled_from(_PARAM_NAMES), unique=True, max_size=2))
    for name in params:
        lines.append("param %s = %s;" % (name, _polynomial_text(draw, xs)))
    if kg:
        lines.append("operator h = klein_gordon(F1=%s, F2=%s, K=%s);" % (
            _polynomial_text(draw, xs + params), _polynomial_text(draw, params),
            _polynomial_text(draw, ["z"] + params)))
    else:
        jets = ["u%s[(%s)]" % ("" if alpha == 1 else alpha, ",".join(map(str, I)))
                for I in jc.JetChartSpec(m, n, k).indices for alpha in range(1, n + 1)]
        components = [_polynomial_text(draw, xs + params + jets)
                      for _ in range(draw(st.integers(1, 2)))]
        lines.append("operator h = %s;" % ", ".join(components))
    for _ in range(draw(st.integers(0, 3))):
        # each parameter of the query at most once, by position or by keyword
        name = draw(st.sampled_from(sorted(cli._QUERIES)))
        names = cli._QUERIES[name].params
        n_pos = draw(st.integers(0, len(names)))
        args = [str(draw(st.integers(0, 6))) for _ in range(n_pos)]
        kwargs = draw(st.lists(st.sampled_from(names[n_pos:]), unique=True)) if names[n_pos:] else []
        args += ["%s=%d" % (kw, draw(st.integers(0, 6))) for kw in kwargs]
        lines.append("query %s(%s);" % (name, ", ".join(args)))
    return "\n".join(lines) + "\n"


def _same_spec(a, b):
    # a MetricSpec compares by identity, so its entries are compared
    assert dataclasses.replace(a, metric=None) == dataclasses.replace(b, metric=None)
    assert (a.metric is None) == (b.metric is None)
    if a.metric is not None:
        assert a.metric.entries == b.metric.entries


@settings(max_examples=30, deadline=None)
@given(_problem_text())
def test_parse_format_parse_is_a_fixed_point(text):
    spec = cli.parse_problem_file(text)
    # the uncached parse, so a text that is already canonical is parsed
    # twice rather than compared with its own cached spec
    _same_spec(cli._parse.__wrapped__(cli.format_problem(spec)), spec)


def test_load_free_data(tmp_path):
    p = tmp_path / "fd.txt"
    p.write_text("u[(3,0)] = 1/2;\nu[(2,1)] = -1;\n")
    spec = cli.parse_problem_file(WAVE)
    h = spec.operator
    table = cli._load_free_data(str(p), h)
    keys = {(alpha, tuple(I)) for (alpha, I) in table}
    assert keys == {(1, (3, 0)), (1, (2, 1))}
    assert set(table.values()) == {Q(1, 2), Q(-1)}
    bad = tmp_path / "bad.txt"
    bad.write_text("u[(1,0)] + 1 = 2;\n")
    with pytest.raises((cli.ProblemError, cli.ParseError, sx.ExprError)):
        cli._load_free_data(str(bad), h)


def test_main_refuses_a_free_data_key_given_twice(tmp_path, capsys):
    # the second value once silently replaced the first
    fd = tmp_path / "fd.txt"
    fd.write_text("u[(0,3)] = 1;\nu[(1,2)] = 2;\n  u[(0, 3)] = 5;\n")
    path = os.path.join(CORPUS_DIR, "kg_curved2.jf")
    assert cli.main(["solve", path, "--free-data", "file:%s" % fd]) == 2
    out = capsys.readouterr()
    assert out.err == "error: free-data key u[(0, 3)] given twice (line 3, col 3)\n"
    assert out.out == ""


def test_main_exit_codes(tmp_path, capsys):
    wave = tmp_path / "wave.jf"
    wave.write_text(WAVE)
    degen = tmp_path / "degen.jf"
    degen.write_text(DEGENERATE)
    broken = tmp_path / "broken.jf"
    broken.write_text("base m = ;\n")

    assert cli.main(["integrability", str(wave)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out

    assert cli.main(["integrability", str(degen)]) == 1
    capsys.readouterr()

    assert cli.main(["integrability", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "line" in err

    assert cli.main(["integrability", str(tmp_path / "missing.jf")]) == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", str(wave)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_main_decimal_exact_conflict(tmp_path, capsys):
    f = tmp_path / "dec.jf"
    f.write_text(WAVE.replace("u[(0,2)]", "0.5*u[(0,2)]"))
    assert cli.main(["symbol", str(f), "--mode", "exact"]) == 2
    err = capsys.readouterr().err
    assert "decimal" in err
    assert cli.main(["symbol", str(f)]) == 0
    capsys.readouterr()


def test_main_json_output(tmp_path, capsys):
    wave = tmp_path / "wave.jf"
    wave.write_text(WAVE)
    out_path = tmp_path / "rep.json"
    assert cli.main(["spencer", str(wave), "--json", str(out_path)]) == 0
    capsys.readouterr()
    obj = json.loads(out_path.read_text())
    assert obj["command"] == "spencer"
    assert obj["results"][0]["query"] == "spencer"

    assert cli.main(["spencer", str(wave), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["schema"] == cli.SCHEMA


def test_main_solve_with_free_data_file(tmp_path, capsys):
    kg = tmp_path / "kg.jf"
    kg.write_text(KG)
    fd = tmp_path / "fd.txt"
    fd.write_text("u[(3,0)] = 1/2;\n")
    code = cli.main(["solve", str(kg), "--free-data", "file:%s" % fd])
    capsys.readouterr()
    assert code == 0
    assert cli.main(["solve", str(kg), "--free-data", "bogus"]) == 2
    capsys.readouterr()


FREE_DATA = "u[(3,0)] = 1/2;\n"


@pytest.mark.parametrize("bad", ["foo bar;", "u[(2,1)] = x1;", "u[(2,1)] = 1/0;", "u[(2,1)] = 1/3"])
def test_main_refuses_malformed_free_data_up_front(tmp_path, capsys, bad):
    kg = os.path.join(CORPUS_DIR, "kg_curved2.jf")
    fd = tmp_path / "fd.txt"
    fd.write_text(FREE_DATA + "  " + bad + "\n")
    assert cli.main(["solve", kg, "--free-data", "file:%s" % fd]) == 2
    out = capsys.readouterr()
    # no query ran, and the error names the place of the bad statement,
    # or of its token where a value does not parse: the '/' of 1/0
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert out.err.endswith("(line 2, col %d)\n" % (15 if "1/0" in bad else 3))
    fd.write_text(FREE_DATA)
    assert cli.main(["solve", kg, "--free-data", "file:%s" % fd]) == 0
    capsys.readouterr()


def test_integrability_reports_every_condition_when_sampling_fails(tmp_path, capsys):
    # no top-order variable enters affinely, so the variety sampler
    # fails; a decimal literal makes the second file run in float mode
    text = "base m = 2;\nfiber n = 1;\norder k = 2;\noperator h = u[(2,0)]^2 + u[(0,2)]^2 - %s;\n"
    for const, mode in (("1", "exact"), ("0.5", "float")):
        f = tmp_path / ("%s.jf" % mode)
        f.write_text(text % const)
        assert cli.main(["integrability", str(f), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == mode
        conds = report["results"][0]["data"]["conditions"]
        assert [c["name"] for c in conds] == [
            "symbol nonvanishing", "prolonged symbol constant rank", "lift surjectivity"]
        assert [c["passed"] for c in conds] == [True, False, False]
        assert conds[2]["detail"] == (
            "sampling failed: no top-order variable with an affine nonzero coefficient")


def test_float_overflow_is_a_failed_condition_or_an_error_line(tmp_path, capsys):
    # a coefficient past the float range: float mode samples the rank of
    # the prolonged symbol and checks the solve's residual in floats
    text = ("base m = 2;\nfiber n = 1;\norder k = 2;\n"
            "operator h = u[(2,0)] - 1%s.5*u[(0,2)];\n" % ("0" * 400))
    f = tmp_path / "overflow.jf"
    f.write_text(text)
    assert cli.main(["integrability", str(f), "--json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)
    assert report["mode"] == "float"
    conds = report["results"][0]["data"]["conditions"]
    assert [c["name"] for c in conds] == [
        "symbol nonvanishing", "prolonged symbol constant rank", "lift surjectivity"]
    assert [c["passed"] for c in conds] == [True, False, True]
    # the lifts are decided before the float ranks overflow
    assert conds[2]["detail"] == (
        "one-step lift solvable at all 8 sampled points (free parameters: [2])")

    h = cli.parse_problem_file(text).operator
    profile = sy.rank_profile(h, samples=4, seed=1, mode="float")
    assert profile.sampled_ranks == []
    assert "sampling failed: integer division result too large for a float" in profile.notes

    assert cli.main(["solve", str(f), "--json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    result = json.loads(out.out)["results"][0]
    assert result["data"] == {"error": "integer division result too large for a float"}


def test_main_refuses_non_utf8_files(tmp_path, capsys):
    bad = tmp_path / "bad.jf"
    bad.write_bytes(b"\xff\xfe" + WAVE.encode("utf-16-le"))
    assert cli.main(["symbol", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    kg = tmp_path / "kg.jf"
    kg.write_text(KG)
    fd = tmp_path / "fd.txt"
    fd.write_bytes(b"u[(3,0)] = \xe9;\n")
    assert cli.main(["solve", str(kg), "--free-data", "file:%s" % fd]) == 2
    assert "error:" in capsys.readouterr().err


CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
_SMALL_FILES = ("wave2.jf", "nonlinear.jf", "cubic.jf")


def _corpus_bytes(name):
    with open(os.path.join(CORPUS_DIR, name), "rb") as fh:
        return fh.read()


@st.composite
def _mutated_corpus_file(draw):
    data = bytearray(_corpus_bytes(draw(st.sampled_from(_SMALL_FILES))))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        byte = draw(st.integers(0, 255))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.binary(max_size=200), _mutated_corpus_file()))
@example(b"\xff\xfe")
@example(b"base m = 2;\xff")
@example(b"base m = 2;\nfiber n = 1;\norder k 2;\n")
def test_main_never_raises_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.jf")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in cli.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, path])
            assert code in (0, 1, 2), command


def _spencer_json(capsys, path, *flags):
    code = cli.main(["spencer", str(path), "--json", *flags])
    return code, json.loads(capsys.readouterr().out)["results"][0]


def test_main_spencer_honours_zero_bounds(tmp_path, capsys):
    wave = tmp_path / "wave.jf"
    wave.write_text(WAVE)
    code, res = _spencer_json(capsys, wave, "--qmax", "0")
    assert code == 0
    assert res["args"] == {"pmax": 2, "qmax": 0}
    assert res["data"]["dim_g"] == {"0": 1}
    assert sorted(res["data"]["cohomology"]) == ["0,0", "1,0", "2,0"]
    code, res = _spencer_json(capsys, wave, "--pmax", "0")
    assert code == 0
    assert res["args"] == {"pmax": 0, "qmax": 4}
    assert sorted(res["data"]["cohomology"]) == ["0,%d" % q for q in range(5)]


def test_spencer_query_honours_zero_bounds():
    spec = cli.parse_problem_file(WAVE.replace("pmax=2, qmax=4", "pmax=0, qmax=0"))
    rep = cli.run_command(spec, "spencer", _flags())
    assert rep.results[0].args == {"pmax": 0, "qmax": 0}
    assert rep.results[0].data["cohomology"] == {"0,0": 1}


def test_main_refuses_negative_bounds(tmp_path, capsys):
    wave = tmp_path / "wave.jf"
    wave.write_text(WAVE)
    for flag in ("--pmax", "--qmax"):
        assert cli.main(["spencer", str(wave), flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err
        assert captured.out == ""


def test_spencer_query_with_negative_bound_fails():
    # refused where the file is read, at the value
    text = WAVE.replace("qmax=4", "qmax=-1")
    with pytest.raises(cli.ParseError) as err:
        cli.parse_problem_file(text)
    assert err.value.message == "argument 'qmax' of query spencer must be >= 0, got -1"
    assert text[err.value.pos:].startswith("-1);")
    # a library caller's flags are still checked when the query runs
    rep = cli.run_command(cli.parse_problem_file(WAVE), "spencer", _flags(pmax=-1))
    assert not rep.passed
    assert rep.results[0].data == {"error": "pmax and qmax must be nonnegative"}


@pytest.mark.parametrize("text,argv", [
    # the flag, a query argument, and a Klein-Gordon operator's defaults
    (WAVE, ["spencer", "--qmax", "5000"]),
    (WAVE.replace("qmax=4", "qmax=5000"), ["spencer"]),
    (KG + "query spencer();\n", ["spencer", "--qmax", "3000"]),
    (DEGENERATE, ["prolong", "--order", "100"]),
    (PARAMS + "query prolong(5000);\n", ["prolong"]),
], ids=["spencer-flag", "spencer-query", "spencer-klein-gordon", "prolong-flag", "prolong-query"])
def test_main_refuses_oversized_requests_up_front(tmp_path, capsys, text, argv):
    path = tmp_path / "big.jf"
    path.write_text(text)
    t0 = time.perf_counter()
    code = cli.main([argv[0], str(path), *argv[1:]])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: %s(" % argv[0]) and "too large" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


LAPLACE3 = """\
base m = 3;
fiber n = 1;
order k = 2;
operator h = u[(2,0,0)] + u[(0,2,0)] + u[(0,0,2)];
"""


@pytest.mark.parametrize("text,argv,query", [
    # codim(25) and solve(27) prolong to level 25: 3276 components
    (LAPLACE3 + "query codim(25);\n", ["integrability"], "codim"),
    (LAPLACE3 + "query solve(60);\n", ["solve"], "solve"),
    (LAPLACE3, ["solve", "--order", "27"], "solve"),
], ids=["codim-query", "solve-query", "solve-flag"])
def test_main_refuses_oversized_codim_and_solve_up_front(tmp_path, capsys, text, argv, query):
    path = tmp_path / "big.jf"
    path.write_text(text)
    t0 = time.perf_counter()
    code = cli.main([argv[0], str(path), *argv[1:]])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: %s(" % query) and "too large" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["integrability", "symbol"])
def test_main_refuses_an_operator_of_too_high_degree_up_front(tmp_path, capsys, command):
    # exact evaluation raises numbers to the term degree: without the
    # bound, integrability on this operator ran for minutes
    path = tmp_path / "big.jf"
    path.write_text("base m = 2;\nfiber n = 1;\norder k = 2;\n"
                    "operator h = u[(2,0)]*u[(0,0)]^3000 - 0.5*u[(0,2)];\n")
    t0 = time.perf_counter()
    code = cli.main([command, str(path)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: the operator is too large: it has a term of total "
                            "degree 3001, above the limit of %d\n" % cli.MAX_TERM_DEGREE)
    assert captured.out == ""
    assert elapsed < 1.0


def test_term_degree_bound_is_far_above_the_corpus():
    degrees = [c.degree() for name in sorted(os.listdir(CORPUS_DIR)) if name.endswith(".jf")
               for c in cli.parse_problem_file(_corpus_bytes(name).decode()).operator.components]
    assert max(degrees) == 4
    assert 10 * max(degrees) < cli.MAX_TERM_DEGREE


def test_main_refuses_too_many_samples_up_front(tmp_path, capsys, monkeypatch):
    # the tests ask for at most 25 samples and the corpus runs take the
    # default of 8; the boundary is checked on a lowered limit
    assert 10 * 25 < cli.MAX_SAMPLES
    path = tmp_path / "wave.jf"
    path.write_text(WAVE)
    for argv, limit in ((["--samples", "100000000"], cli.MAX_SAMPLES), (["--samples", "4"], 3)):
        monkeypatch.setattr(cli, "MAX_SAMPLES", limit)
        t0 = time.perf_counter()
        code = cli.main(["integrability", str(path), *argv])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --samples %s is too large: above the limit of %d\n" % (
            argv[1], limit)
        assert captured.out == ""
        assert elapsed < 1.0
    assert cli.main(["integrability", str(path), "--samples", "3"]) == 0


def test_main_refuses_oversized_tower_up_front(tmp_path, capsys):
    # tower(levels) builds the jet charts up to order levels; at m=3 the
    # top chart of tower(21) has C(24, 3) = 2024 jet coordinates
    path = tmp_path / "big.jf"
    path.write_text(LAPLACE3 + "query tower(21);\n")
    t0 = time.perf_counter()
    code = cli.main(["tower", str(path)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: tower(21)") and "too large" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0
    # the largest tower admitted at m=3
    path.write_text(LAPLACE3 + "query tower(20);\n")
    assert cli.main(["tower", str(path)]) == 0


def test_main_tower_with_negative_levels_fails(tmp_path, capsys):
    path = tmp_path / "neg.jf"
    path.write_text(LAPLACE3 + "query tower(-1);\n")
    assert cli.main(["tower", str(path), "--json"]) == 2
    out = capsys.readouterr()
    assert out.err == "error: argument 'levels' of query tower must be >= 0, got -1 (line 5, col 13)\n"
    assert out.out == ""
    # the runner still refuses one from a library caller
    with pytest.raises(ValueError, match="^levels must be nonnegative$"):
        cli._run_tower(cli.parse_problem_file(LAPLACE3).operator, {"levels": -1}, _flags())


def test_main_reports_unwritable_json_path(tmp_path, capsys):
    wave = tmp_path / "wave.jf"
    wave.write_text(WAVE)
    out_path = tmp_path / "missing" / "out.json"
    assert cli.main(["spencer", str(wave), "--json", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(out_path) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_size_estimates_bound_the_matrices_built():
    # wave operator at m=3 through (pmax, qmax) = (3, 3): the largest
    # restricted delta and prolonged constraint matrix built are within
    # the estimate
    spec = cli.parse_problem_file(WAVE.replace("m = 2", "m = 3").replace(
        "u[(2,0)] - u[(0,2)]", "u[(2,0,0)] - u[(0,2,0)] - u[(0,0,2)]"))
    h = spec.operator
    g = sp.symbolic_system_at(h, cli._random_jet_point(h, 0))
    sp.cohomology_dims(g, 3, 3)
    built = [g.constraints_at(q) for q in range(2, 5)]
    built += [sp.restricted_delta(g, p, q) for p in range(4) for q in range(5)]
    largest = max(M.nrows * M.ncols for M in built)
    assert largest <= cli.spencer_matrix_entries(3, 1, 3, 3)
    assert cli.prolonged_components(3, 1, 2) == len(jc.prolong_op(h, 2).components)


def test_argument_parser_is_built_once():
    assert cli._build_argparser() is cli._build_argparser()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join("tests", "corpus")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_corpus_reports_match_pinned_sha256(command, monkeypatch):
    # canonical seed-0 reports are pinned byte for byte in
    # bench/cli_golden.json; they embed the corpus path relative to the
    # checkout root, so run from there
    with open(os.path.join(ROOT, "bench", "cli_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(ROOT)
    names = sorted(f for f in os.listdir(CORPUS) if f.endswith(".jf"))
    assert names
    for name in names:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, os.path.join(CORPUS, name), "--seed", "0", "--json", "-"])
        assert code == 0, name
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert digest == golden["%s %s" % (command, name)], name


def test_main_builds_the_operator_once(tmp_path, monkeypatch, capsys):
    calls = []
    build = ig.make_klein_gordon

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ig, "make_klein_gordon", counting)
    cli._parse.cache_clear()
    path = tmp_path / "kg_mink4.jf"
    path.write_text(_corpus_bytes("kg_mink4.jf").decode("utf-8"))
    # two calls on one text build its operator once
    for seed in ("0", "3"):
        assert cli.main(["integrability", str(path), "--seed", seed]) == 0
    assert len(calls) == 1
    # an edited file is a new text, so it is parsed and built again
    path.write_text(path.read_text() + "# edited\n")
    assert cli.main(["integrability", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# one parse per text


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_failing_command_fails_alike_on_every_call(tmp_path):
    # DEGENERATE parses; its integrability check fails when it runs
    path = tmp_path / "degenerate.jf"
    path.write_text(DEGENERATE)
    argv = ["integrability", str(path), "--json", "-"]
    cli._parse.cache_clear()
    cold = _main_output(argv)
    assert cold[0] == 1
    assert _main_output(argv) == cold


def test_a_primitive_registered_again_parses_the_text_again(tmp_path):
    # the operator keeps its prolongations, so a reused spec would
    # prolong under the first rule
    path = tmp_path / "twist.jf"
    path.write_text("base m = 2;\nfiber n = 1;\norder k = 1;\n"
                    "operator h = u[(1,0)] - twist_test(u[(0,0)]);\nquery prolong(1);\n")
    argv = ["prolong", str(path), "--json", "-"]
    try:
        sx.register_primitive("twist_test", derivative=lambda a: 2 * a)
        first = _main_output(argv)
        assert first[0] == 0 and "2*u[(0,0)]*u[(0,1)]" in first[1]
        sx.register_primitive("twist_test", derivative=lambda a: 3 * a)
        again = _main_output(argv)
        cli._parse.cache_clear()
        assert again == _main_output(argv)
        assert "3*u[(0,0)]*u[(0,1)]" in again[1]
    finally:
        del sx._REGISTRY["twist_test"]


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".jf")))
def test_warm_calls_print_the_bytes_of_cold_calls(name):
    # a cold call parses the text afresh; a warm one reuses its spec,
    # operator and plans after every other run on the text: each command
    # under two seeds, float and exact mode (exact fails on decimal.jf),
    # order 2 before and after order 1, fewer samples and random free data
    path = os.path.join(CORPUS_DIR, name)
    flag_sets = [("--seed", "0"), ("--seed", "7"), ("--mode", "float", "--seed", "7"),
                 ("--mode", "exact"), ("--order", "2"), ("--order", "1"),
                 ("--samples", "3", "--seed", "2"), ("--free-data", "random", "--seed", "7")]
    runs = [(command, flags) for command in cli.COMMANDS for flags in flag_sets]
    cold = {}
    for command, flags in runs:
        cli._parse.cache_clear()
        cold[command, flags] = _main_output([command, path, *flags, "--json", "-"])
    for command, flags in runs + runs[::-1]:
        warm = _main_output([command, path, *flags, "--json", "-"])
        assert warm == cold[command, flags], (command, flags)


def test_python_dash_m_runs_the_command_line(monkeypatch, capsys):
    # the package runs as a program without a warning, and prints what
    # cli.main prints (the canonical report, which has no timings)
    monkeypatch.chdir(ROOT)
    args = ["integrability", os.path.join("tests", "corpus", "kg_mink4.jf"), "--json", "-"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "jetforge", *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert cli.main(args) == 0
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == capsys.readouterr().out


# ---------------------------------------------------------------------------
# the usage-error contract: exit 2 and one error line, never a traceback


_OPERATOR = "operator h = u[(2,0)] - u[(0,2)];\n"


@pytest.mark.parametrize("text, extra, message", [
    # an operator with no components once ended every command in a
    # traceback from max() over its components
    (_CHART + "operator h = ;\n", None,
     "operator h has no components (line 4, col 14)"),
    (_CHART + "operator h =\n  ;\n", None,
     "operator h has no components (line 5, col 3)"),
    (_CHART + "operator h;\n", None,
     "operators are declared as 'operator h = ...' (line 4, col 1)"),
    (_CHART + "metric { g[1][1] = 1;\n" + _OPERATOR, None,
     "unbalanced '{' (line 5, col 34)"),
    (_CHART + "operator h = u[(2,0)]\n", None,
     "missing ';' after final statement (line 4, col 1)"),
    ("base m = two;\nfiber n = 1;\norder k = 2;\n" + _OPERATOR, None,
     "expected an integer, got 'two' (line 1, col 10)"),
    (_CHART + "metric { g[1] = 1; }\n" + _OPERATOR, None,
     "bad metric indices in 'g[1]' (line 4, col 10)"),
    (_CHART + "param x2 = 1;\n" + _OPERATOR, None,
     "param name 'x2' is taken by a base coordinate (line 4, col 7)"),
    (_CHART + _OPERATOR + "query bogus();\n", None,
     "unknown query 'bogus'"),
    (_CHART + _OPERATOR + "query prolong(l = one);\n", None,
     "expected an integer, got 'one' (line 5, col 19)"),
    (_KG_HEAD + "operator h = klein_gordon(F1=1, G=2);\n", None,
     "unknown klein_gordon field 'G' (line 5, col 33)"),
    (_CHART + _OPERATOR, "u[(0,3)] = 1;\nu[(0,3)] = 2;\n",
     "free-data key u[(0,3)] given twice (line 2, col 1)"),
    # a chart declaration without '=' was once read up to the next
    # statement, and one whose letter only began with m parsed
    ("base m = 2;\n  fiber n 1;\norder k = 2;\n" + _OPERATOR, None,
     "expected 'fiber n = <int>' (line 2, col 3)"),
    ("base mx = 2;\nfiber nn = 1;\norder kk = 2;\n" + _OPERATOR, None,
     "expected 'base m = <int>' (line 1, col 1)"),
    # a query argument that nothing reads was once dropped silently
    (_CHART + _OPERATOR + "query spencer(pmax=1,  qmx=9);\n", None,
     "unknown argument 'qmx' of query spencer (line 5, col 24)"),
    (_CHART + _OPERATOR + "query integrability(l=1);\n", None,
     "unknown argument 'l' of query integrability (line 5, col 21)"),
    (_CHART + _OPERATOR + "query prolong(l=1, l=2);\n", None,
     "argument 'l' of query prolong given twice (line 5, col 20)"),
    (_CHART + _OPERATOR + "query prolong(1, 2);\n", None,
     "query prolong takes at most 1 positional argument (line 5, col 18)"),
    (_CHART + _OPERATOR + "query spencer(1, 2,\n  3);\n", None,
     "query spencer takes at most 2 positional arguments (line 6, col 3)"),
    (_CHART + _OPERATOR + "query symbol(0);\n", None,
     "query symbol takes at most 0 positional arguments (line 5, col 14)"),
    (_CHART + _OPERATOR + "query prolong(1, l=2);\n", None,
     "argument 'l' of query prolong given by position and by keyword (line 5, col 18)"),
    (_CHART + _OPERATOR + "query spencer(qmax=3, 1, 2);\n", None,
     "argument 'qmax' of query spencer given by position and by keyword (line 5, col 26)"),
    (_CHART + "metric { g[1][1] = 1; }}\n" + _OPERATOR, None,
     "unbalanced '}' (line 4, col 24)"),
    ("base m = 2;\nmetric { g[1][1] = 1; }\nfiber n = 1;\norder k = 2;\n" + _OPERATOR, None,
     "metric block before chart declarations"),
    ("base m = 2;\nfiber n = 1;\n" + _OPERATOR + "order k = 2;\n", None,
     "operator before chart declarations"),
    (_CHART + "metric { h[1][1] = 1; }\n" + _OPERATOR, None,
     "metric entries look like g[i][j] = expr (line 4, col 10)"),
    (_CHART + "param 2c = 1;\n" + _OPERATOR, None,
     "bad parameter name '2c' (line 4, col 1)"),
    (_CHART + _OPERATOR + "query prolong;\n", None,
     "queries look like 'query name(args);' (line 5, col 1)"),
    (_CHART + "operator h = klein_gordon(F1=1, F2=1, K=z^3);\n", None,
     "klein_gordon requires a metric block before the operator"),
    (_CHART + "operator h = klein_gordon(F1=1, F2=1, K=z^3);\n"
     "metric { g[1][1] = 1; g[2][2] = -1; }\n", None,
     "klein_gordon requires a metric block before the operator"),
    (_CHART + _OPERATOR, ("--samples", "0"), "--samples must be at least 1"),
    (_CHART + _OPERATOR, ("--order", "-1"), "--order must be nonnegative"),
], ids=["empty_operator", "empty_operator_next_line", "operator_without_equals",
        "unbalanced_braces", "missing_semicolon", "chart_value",
        "metric_entry", "taken_param", "unknown_query", "query_integer", "klein_gordon_field",
        "free_data_key_twice", "chart_without_equals", "chart_letter",
        "query_unknown_keyword", "query_keyword_of_no_parameter", "query_repeated_keyword",
        "query_surplus_position", "spencer_surplus_position", "symbol_surplus_position",
        "query_position_and_keyword", "spencer_keyword_then_position", "unbalanced_close",
        "metric_before_chart", "operator_before_chart", "metric_entry_name",
        "bad_param_name", "query_without_parentheses", "klein_gordon_without_metric",
        "klein_gordon_metric_after_operator", "no_samples", "negative_order"])
def test_every_malformed_input_exits_2_with_one_error_line(tmp_path, text, extra, message):
    # extra is None, the text of a free-data file, or command-line flags
    path = tmp_path / "bad.jf"
    path.write_text(text)
    flags = []
    if isinstance(extra, tuple):
        flags = list(extra)
    elif extra is not None:
        fd = tmp_path / "fd.txt"
        fd.write_text(extra)
        flags = ["--free-data", "file:%s" % fd]
    for command in cli.COMMANDS:
        code, out, err = _main_output([command, str(path), *flags])
        assert (code, out, err) == (2, "", "error: %s\n" % message), command


def test_a_value_error_while_running_is_an_error_line(tmp_path, monkeypatch):
    def refuse(h, name, args):
        raise ValueError("refused for the test")

    monkeypatch.setattr(cli, "_refuse_oversized", refuse)
    path = tmp_path / "wave.jf"
    path.write_text(WAVE)
    assert _main_output(["integrability", str(path)]) == (2, "", "error: refused for the test\n")


_PADDING = st.sampled_from(("", " ", "  ", "\t", "\n", " \n\t "))


@st.composite
def _padded_corpus_text(draw):
    """A corpus file, the same file with the blanks around each '=' and
    ',' outside comments redrawn, and the positions just after each
    '=' of the padded text."""
    text = _corpus_bytes(draw(st.sampled_from(sorted(
        f for f in os.listdir(CORPUS_DIR) if f.endswith(".jf"))))).decode("utf-8")
    out = []
    after_equals = []
    size = 0
    for line in text.splitlines(keepends=True):
        code, sharp, comment = line.partition("#")
        for ch in code:
            piece = draw(_PADDING) + ch + draw(_PADDING) if ch in "=," else ch
            out.append(piece)
            size += len(piece)
            if ch == "=":
                after_equals.append(size)
        out.append(sharp + comment)
        size += len(sharp + comment)
    return text, "".join(out), after_equals


@settings(max_examples=30, deadline=None)
@given(_padded_corpus_text())
def test_padding_around_equals_and_commas_keeps_the_spec(case):
    text, padded, _ = case
    _same_spec(cli._parse.__wrapped__(padded), cli.parse_problem_file(text))


@settings(max_examples=30, deadline=None)
@given(_padded_corpus_text(), st.data())
def test_a_bad_value_is_located_at_its_first_character_after_padding(case, data):
    _, padded, after_equals = case
    at = data.draw(st.sampled_from(after_equals))
    while padded[at].isspace():
        at += 1
    bad = padded[:at] + "?" + padded[at:]
    with pytest.raises(sx.ParseError) as exc:
        cli._parse.__wrapped__(bad)
    assert exc.value.pos == at


def test_a_metric_entry_name_may_be_followed_by_any_blank():
    # a tab or a newline before '=' once stayed in the entry's name
    for blank in ("\t", "\n", " \t\n "):
        spec = cli.parse_problem_file(
            _CHART + "metric { g[1][1]%s= 1; g[2][2]%s= -1; }\n" % (blank, blank)
            + "operator h = klein_gordon(F1=1, F2=1, K=z^3);\n")
        assert spec.metric.entries[0][0] == sx.ONE and spec.metric.entries[1][1] == -sx.ONE
