"""The report writer against the encoder it replaced.

The oracle below is the JSON path `cli.emit_report` once had: each
result's args and data made JSON-able by `_jsonable`, the report laid
out as a dict, and `json.dumps(..., sort_keys=True, indent=2)` plus a
newline.  The writer must give the same bytes for every report."""

import contextlib
import io
import json
import math
import os
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import cli
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".jf"))


def _jsonable(v):
    if isinstance(v, Q):
        return str(v) if v.denominator != 1 else str(v.numerator)
    if isinstance(v, MultiIndex):
        return list(v)
    if isinstance(v, sx.Expr):
        return sx.format_expr(v)
    if isinstance(v, dict):
        return {cli._key_str(kk): _jsonable(vv) for kk, vv in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float):
        return repr(v)
    return v


def _to_json_obj(report):
    return {
        "schema": cli.SCHEMA,
        "command": report.command,
        "source": report.source,
        "seed": report.seed,
        "samples": report.samples,
        "mode": report.mode,
        "passed": report.passed,
        "results": [
            {
                "query": r.query,
                "args": _jsonable(r.args),
                "passed": r.passed,
                "provenance": r.provenance,
                "data": _jsonable(r.data),
                "notes": list(r.notes),
            }
            for r in report.results
        ],
    }


def _oracle(report):
    return json.dumps(_to_json_obj(report), sort_keys=True, indent=2) + "\n"


def _spec(name):
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
        return cli.parse_problem_file(fh.read())


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_reports_match_the_old_encoder(name):
    # every command at three seeds, in exact mode, and in float mode,
    # the only mode of the file with decimal literals (decimal.jf)
    spec = _spec(name)
    modes = ("float",) if spec.float_literals else ("exact", "float")
    path = os.path.join("tests", "corpus", name)
    for command in cli.COMMANDS:
        for seed in (0, 1, 7):
            for mode in modes:
                report = cli.run_command(spec, command, cli.CliFlags(seed=seed, mode=mode),
                                         source=path)
                assert cli.emit_report(report, "json") == _oracle(report), (command, seed, mode)


# strings that need escaping or lie outside ASCII, and keys that give
# one string under `_key_str`: (1, 2), MultiIndex((1, 2)) and "1,2";
# 3 and "3"; False and "False"
_AWKWARD = ['"', "\\", "\x00", "\x1f", "\n\t", "\x7f", "é", " ", "\U0001f600", "a\"b\\c"]
_STRINGS = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=6))
_KEYS = st.one_of(
    _STRINGS,
    st.integers(-3, 3), st.booleans(),
    st.sampled_from([(1, 2), MultiIndex((1, 2)), "1,2", 3, "3", False, "False", (), ""]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.integers(0, 2), max_size=3).map(MultiIndex),
)
_EXPRS = [sx.ZERO, sx.as_expr(Q(-7, 3))] + [
    e for name in ("kg_curved2.jf", "params.jf", "nonlinear.jf")
    for e in _spec(name).operator.components]
_LEAVES = st.one_of(
    st.integers(min_value=-10 ** 40, max_value=10 ** 40),
    st.fractions(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, None, True, False]),
    st.sampled_from(_EXPRS),
    st.sampled_from([{}, [], ()]),
    _STRINGS,
    st.lists(st.integers(0, 3), max_size=3).map(MultiIndex),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=20)


def _report(args, data, notes, passed=True):
    result = cli.QueryResult("qéry", args, passed, "exact", data, notes=notes)
    return cli.Report(command="symbol", source="dir/ü \"x\".jf", seed=-3, samples=10 ** 20,
                      mode="exact", results=[result, result])


@settings(max_examples=200, deadline=None)
@given(_VALUES, st.dictionaries(_KEYS, _VALUES, max_size=3), st.lists(_STRINGS, max_size=3),
       st.booleans())
def test_writer_matches_the_old_encoder(value, args, notes, passed):
    out = []
    cli._write_json(value, out, "")
    assert "".join(out) == json.dumps(_jsonable(value), sort_keys=True, indent=2)
    report = _report(args, value, notes, passed)
    text = cli.emit_report(report, "json")
    assert text == _oracle(report)
    assert text.isascii()


def test_an_empty_report_matches_the_old_encoder():
    report = cli.Report(command="solve", source="x.jf", seed=0, samples=8, mode="exact",
                        results=[])
    assert cli.emit_report(report, "json") == _oracle(report)


def test_a_value_json_cannot_hold_raises_type_error():
    report = _report({}, {"a": [1, {2, 3}]}, [])
    with pytest.raises(TypeError):
        _oracle(report)
    with pytest.raises(TypeError):
        cli.emit_report(report, "json")


@pytest.mark.parametrize("name", ["kg_curved2.jf", "decimal.jf"])
def test_json_to_a_path_writes_the_bytes_printed(tmp_path, name):
    path = os.path.join(CORPUS_DIR, name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["integrability", path, "--seed", "1", "--json", "-"])
    target = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()) as quiet:
        assert cli.main(["integrability", path, "--seed", "1", "--json", str(target)]) == code
    assert target.read_bytes() == out.getvalue().encode("utf-8")
    # the text rendering goes to stdout meanwhile
    assert quiet.getvalue().startswith("jetforge report")
