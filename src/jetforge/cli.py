"""Problem-file DSL, command dispatch, and report emission.

A problem file declares a chart, optional metric and parameters, one
operator, and a list of queries:

    base m = 2;
    fiber n = 1;
    order k = 2;
    # metric { g[1][1] = 1; g[2][2] = -1; }
    # param a = 3/4;
    operator h = u[(2,0)] - u[(0,2)];
    query integrability();

Rational literals stay exact; a decimal literal anywhere switches the
whole file to float mode (and conflicts with an explicit --mode exact).
Reports are emitted as text or as canonical JSON whose bytes depend
only on the input file, the flags, and the seed; timings appear in the
text rendering only.  Exit codes: 0 when every check passed, 1 when a
check failed or a computation was obstructed, 2 with one `error:` line
on stderr for a file, flag or free-data file that cannot be used (a
parse error names its line and column in the file it is in).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import comb
from typing import NamedTuple

from . import symexpr as sx
from .symexpr import Expr, ParseError, ParamVar, JetVar
from . import jetcalc as jc
from . import spencer as sp
from . import symbols as sy
from . import integrability as ig
from . import formal as fm
from . import pfd

SCHEMA = "jetforge-report/1"


class ProblemError(ValueError):
    """Semantic error in a problem file."""


@dataclass(frozen=True)
class Query:
    name: str
    args: tuple = ()
    kwargs: tuple = ()

    def arg_dict(self):
        return dict(self.kwargs)


@dataclass(frozen=True)
class ProblemSpec:
    m: int
    n: int
    k: int
    metric: object = None
    params: tuple = ()
    operator_kind: str = "expr"
    operator_exprs: tuple = ()
    kg_fields: tuple = ()
    queries: tuple = ()
    float_literals: bool = False

    @functools.cached_property
    def operator(self):
        """The operator the spec describes, built on first read and kept
        (outside the dataclass fields, so not in == or the hash).  Specs
        from `parse_problem_file` are shared per text, so this operator
        and what it keeps are shared too: do not mutate it."""
        if self.operator_kind == "klein_gordon":
            F1, F2, Kpoly = self.kg_fields
            K = None
            if Kpoly is not None:
                K = lambda e: sx.substitute(Kpoly, {ParamVar("z"): sx.as_expr(e)})
            return ig.make_klein_gordon(self.metric, F1=F1, F2=F2, K=K)
        return jc.DiffOp(self.m, self.n, self.k, list(self.operator_exprs))


# ---------------------------------------------------------------------------
# parsing


def _statements(text):
    """The statements of text, each with its offset in the text.
    Comments are blanked, not dropped, so offset + i is the text
    position of a statement's character i."""
    out = []
    buf = []
    start = None
    pos = 0
    in_comment = False
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "#":
            in_comment = True
        elif ch == "\n":
            in_comment = False
        if in_comment:
            ch = " "
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced '}'", text, pos)
            if depth == 0:
                buf.append(ch)
                stmt = "".join(buf).strip()
                if stmt:
                    out.append((stmt, start))
                buf = []
                start = None
                continue
        if ch == ";" and depth == 0:
            stmt = "".join(buf).strip()
            if stmt:
                out.append((stmt, start))
            buf = []
            start = None
            continue
        if start is None:
            if ch.isspace():
                continue
            start = pos
        buf.append(ch)
    tail = "".join(buf).strip()
    if depth != 0:
        raise ParseError("unbalanced '{'", text, pos)
    if tail:
        raise ParseError("missing ';' after final statement", text, start or 0)
    return out


def _field(s, pos):
    """s stripped of surrounding blanks, and the text position of its
    first character, pos being that of s."""
    stripped = s.lstrip()
    return stripped.rstrip(), pos + len(s) - len(stripped)


def _sides(s, pos):
    """The two sides of 'lhs = rhs', split at the first '=' and
    stripped, each followed by the text position of its first
    character, pos being that of s: (lhs, lhs_at, rhs, rhs_at).
    Without an '=', rhs is blank."""
    lhs, _, rhs = s.partition("=")
    return (*_field(lhs, pos), *_field(rhs, pos + len(lhs) + 1))


def _next_token(text, at):
    """The text position of the first non-blank character from at on."""
    while at < len(text) and text[at].isspace():
        at += 1
    return at


def _expect_int(text, value, at):
    """The integer a stripped value spells, at being its text position;
    an error points at the value, or at the next token of the text when
    value is blank."""
    try:
        return int(value)
    except ValueError:
        raise ParseError("expected an integer, got %r" % value, text, _next_token(text, at))


# the chart declarations: the letter each declares and its least value
_CHART_DECLS = {"base": ("m", 1), "fiber": ("n", 1), "order": ("k", 0)}
# the declarations that need the chart, as their errors name them
_AFTER_CHART = {"metric": "metric block", "param": "param", "operator": "operator"}


def _taken_name(name):
    """What an expression reads name as before a parameter, if anything:
    a parameter of that name would be silently ignored or would hide it."""
    if name == "u":
        return "the fiber coordinate"
    if name[:1] == "x" and name[1:].isdigit():
        return "a base coordinate"
    if sx.primitive_registered(name):
        return "a registered primitive"
    return None


def parse_problem_file(text):
    """Parse a problem file into a ProblemSpec.

    Each distinct text is parsed once per process: a later call with
    the same text, from `main` or from a library caller, returns the
    same spec, and with it the same operator and everything derived
    and kept on it (prolongations, lift plans, the symbol), for the
    last 16 texts.  The key is the text, not a path, so an edited file
    parses again; it also holds the primitive registry, so a text
    parses again after `symexpr.register_primitive` changes a rule.
    The spec and its operator are shared and must not be mutated.

    Raises ParseError with a position for syntax errors and
    ProblemError for semantic ones (missing declarations, order
    overflow, unknown query names); a text that raises is not kept, so
    it raises on every call.
    """
    return _parse(text, sx.registry_state())


# 16 texts: above the 14 corpus files, since an LRU smaller than a
# cyclic access pattern never hits; each text keeps every prolongation
# and plan asked of it, tens of MB for a large prolongation
@functools.lru_cache(maxsize=16)
def _parse(text, registry=None):
    """The spec of text, uncached through `_parse.__wrapped__(text)`;
    registry is only part of the cache key."""
    chart = {}  # letter -> value of base m, fiber n, order k
    metric_entries = None
    params = []
    param_at = {}  # name -> text position of its declared name
    op_kind = None
    op_exprs = None
    kg_fields = None
    queries = []
    saw_decimal = False

    def ctx(order, extra_params=()):
        names = tuple(name for name, _ in params) + tuple(extra_params)
        return sx.ExprContext(chart["m"], n=chart["n"], order=order, params=names)

    def parse_e(src, pos, order, extra_params=()):
        # pos is the text position of src, so an error points at its token
        nonlocal saw_decimal
        try:
            e, dec = sx.parse_expr_flagged(src, ctx(order, extra_params))
        except ParseError as err:
            raise ParseError("%s in %r" % (err.message, " ".join(src.split())), text,
                             pos + (err.pos or 0))
        saw_decimal = saw_decimal or dec
        return sx.substitute(e, {ParamVar(name): v for name, v in params
                                 if name not in extra_params})

    for stmt, pos in _statements(text):
        head = stmt.split(None, 1)[0]
        body, at = _field(stmt[len(head):], pos + len(head))
        if head in _AFTER_CHART and len(chart) < 3:
            raise ProblemError("%s before chart declarations" % _AFTER_CHART[head])
        if head in _CHART_DECLS:
            letter, least = _CHART_DECLS[head]
            if letter in chart:
                raise ParseError("'%s %s' declared twice" % (head, letter), text, pos)
            lhs, _, value, at = _sides(body, at)
            if lhs != letter or "=" not in body:
                raise ParseError("expected '%s %s = <int>'" % (head, letter), text, pos)
            chart[letter] = _expect_int(text, value, at)
            if chart[letter] < least:
                raise ParseError("%s %s must be >= %d, got %d"
                                 % (head, letter, least, chart[letter]), text, at)
        elif head == "metric":
            if not (body.startswith("{") and body.endswith("}")):
                raise ParseError("metric block must be '{ ... }'", text, at)
            metric_entries = {}
            at += 1
            for raw in body[1:-1].split(";"):
                lhs, epos, rhs, rhs_at = _sides(raw, at)
                at += len(raw) + 1
                if not raw.strip():
                    continue
                name = lhs.replace(" ", "")
                if not (name.startswith("g[") and name.endswith("]")):
                    raise ParseError("metric entries look like g[i][j] = expr", text, epos)
                try:
                    i_s, j_s = name[2:-1].split("][")
                    i, j = int(i_s), int(j_s)
                except ValueError:
                    raise ParseError("bad metric indices in %r" % name, text, epos)
                if (i, j) in metric_entries:
                    raise ParseError("metric entry %s given twice" % name, text, epos)
                metric_entries[(i, j)] = parse_e(rhs, rhs_at, 0)
        elif head == "param":
            name, _, rhs, rhs_at = _sides(body, at)
            if not name.isidentifier():
                raise ParseError("bad parameter name %r" % name, text, pos)
            if name in param_at:
                raise ParseError("'param %s' declared twice" % name, text, at)
            taken = _taken_name(name)
            if taken:
                raise ParseError("param name %r is taken by %s" % (name, taken), text, at)
            param_at[name] = at
            params.append((name, parse_e(rhs, rhs_at, 0)))
        elif head == "operator":
            if op_kind is not None:
                raise ParseError("'operator h' declared twice", text, pos)
            lhs, _, rhs, at = _sides(body, at)
            if lhs != "h" or "=" not in body:
                raise ParseError("operators are declared as 'operator h = ...'", text, pos)
            if rhs.startswith("klein_gordon"):
                op_kind = "klein_gordon"
                inner, at = _field(rhs[len("klein_gordon"):], at + len("klein_gordon"))
                if not (inner.startswith("(") and inner.endswith(")")):
                    raise ParseError("klein_gordon takes (F1=..., F2=..., K=...)", text, at)
                fields = {"F1": sx.ZERO, "F2": sx.ZERO, "K": None}
                for off, part in _split_top(inner[1:-1], text, at + 1):
                    key, key_at, val, val_at = _sides(part, at + 1 + off)
                    if key not in fields:
                        raise ParseError("unknown klein_gordon field %r" % key, text, key_at)
                    fields[key] = parse_e(val, val_at, 0, extra_params=("z",) if key == "K" else ())
                if metric_entries is None:
                    raise ProblemError("klein_gordon requires a metric block before the operator")
                kg_fields = tuple(fields.values())
            elif not rhs:
                raise ParseError("operator h has no components", text, _next_token(text, at))
            else:
                op_kind = "expr"
                op_exprs = tuple(parse_e(*_field(p, at + off), chart["k"])
                                 for off, p in _split_top(rhs, text, at))
        elif head == "query":
            name, _, rest = body.partition("(")
            at += len(name) + 1
            name = name.strip()
            if not rest.endswith(")"):
                raise ParseError("queries look like 'query name(args);'", text, pos)
            if name not in _QUERIES:
                raise ProblemError("unknown query %r" % name)
            names = _QUERIES[name].params
            args = []
            kwargs = []
            given = {}  # parameter -> "position" or "keyword"
            for off, part in _split_top(rest[:-1], text, at):
                key, key_at, value, value_at = _sides(part, at + off)
                if "=" not in part:
                    if len(args) == len(names):
                        raise ParseError("query %s takes at most %d positional argument%s"
                                         % (name, len(names), "" if len(names) == 1 else "s"),
                                         text, key_at)
                    key, value, value_at, how = names[len(args)], key, key_at, "position"
                elif key not in names:
                    raise ParseError("unknown argument %r of query %s" % (key, name), text, key_at)
                else:
                    how = "keyword"
                if key in given:
                    raise ParseError("argument %r of query %s given %s" % (
                        key, name, "twice" if given[key] == how else "by position and by keyword"),
                        text, key_at)
                given[key] = how
                number = _expect_int(text, value, value_at)
                if number < 0:
                    raise ParseError("argument %r of query %s must be >= 0, got %d"
                                     % (key, name, number), text, value_at)
                if how == "keyword":
                    kwargs.append((key, number))
                else:
                    args.append(number)
            queries.append(Query(name, tuple(args), tuple(kwargs)))
        else:
            raise ParseError("unknown declaration %r" % head, text, pos)

    if len(chart) < 3:
        raise ProblemError("a problem file must declare base, fiber, and order")
    Kpoly = kg_fields[2] if kg_fields else None
    if "z" in param_at and Kpoly is not None and ParamVar("z") in Kpoly.free_vars():
        raise ParseError("param name 'z' is taken by the argument of klein_gordon's K",
                         text, param_at["z"])
    if op_kind is None:
        raise ProblemError("a problem file must declare an operator")
    metric = None
    if metric_entries is not None:
        # one triangle suffices in a problem file; mirror the other
        for (i, j) in list(metric_entries):
            if (j, i) not in metric_entries:
                metric_entries[(j, i)] = metric_entries[(i, j)]
        metric = ig.MetricSpec(chart["m"], metric_entries)
    spec = ProblemSpec(
        m=chart["m"], n=chart["n"], k=chart["k"], metric=metric, params=tuple(params),
        operator_kind=op_kind,
        operator_exprs=op_exprs or (),
        kg_fields=kg_fields or (),
        queries=tuple(queries),
        float_literals=saw_decimal,
    )
    spec.operator  # surfaces semantic errors early
    return spec


def _split_top(s, text, at):
    """Split on commas outside parentheses and brackets: (offset in s,
    part) pairs, at being the text position of s.  A blank s is the
    empty list; in any other, a blank item is refused where it stands."""
    if not s.strip():
        return []
    parts = []
    depth = 0
    start = 0
    for pos, ch in enumerate(s):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append((start, s[start:pos]))
            start = pos + 1
    parts.append((start, s[start:]))
    for off, part in parts:
        if not part.strip():
            raise ParseError("blank item in a comma-separated list", text,
                             _next_token(text, at + off))
    return parts


def format_problem(spec):
    """Canonical text form; parse(format_problem(parse(text))) is stable."""
    lines = ["base m = %d;" % spec.m, "fiber n = %d;" % spec.n, "order k = %d;" % spec.k]
    if spec.metric is not None:
        entries = []
        for i in range(spec.m):
            for j in range(i, spec.m):
                e = spec.metric.entries[i][j]
                if not e.is_zero():
                    entries.append("g[%d][%d] = %s;" % (i + 1, j + 1, sx.format_expr(e)))
        lines.append("metric { %s }" % " ".join(entries))
    for name, e in spec.params:
        lines.append("param %s = %s;" % (name, sx.format_expr(e)))
    if spec.operator_kind == "klein_gordon":
        F1, F2, Kpoly = spec.kg_fields
        fields = ["F1=%s" % sx.format_expr(F1), "F2=%s" % sx.format_expr(F2)]
        if Kpoly is not None:
            fields.append("K=%s" % sx.format_expr(Kpoly))
        lines.append("operator h = klein_gordon(%s);" % ", ".join(fields))
    else:
        lines.append("operator h = %s;" % ", ".join(sx.format_expr(e) for e in spec.operator_exprs))
    for q in spec.queries:
        parts = [str(a) for a in q.args] + ["%s=%d" % kv for kv in q.kwargs]
        lines.append("query %s(%s);" % (q.name, ", ".join(parts)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


@dataclass
class QueryResult:
    query: str
    args: dict
    passed: bool
    provenance: str
    data: dict
    notes: list = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class Report:
    command: str
    source: str
    seed: int
    samples: int
    mode: str
    results: list

    @property
    def passed(self):
        return all(r.passed for r in self.results)


def _key_str(kk):
    if isinstance(kk, tuple):  # a MultiIndex too
        return ",".join(str(x) for x in kk)
    return str(kk)


def _write_json(v, out, pad):
    """Append to the list out the canonical JSON text of v, a value that
    opens at indent pad (a string of blanks): the text that
    `json.dumps(..., sort_keys=True, indent=2)` gives v after each
    Fraction is made "p/q" (or "n" when q is 1), each Expr its
    `format_expr` string and each float its repr string, each
    MultiIndex, tuple or list an array, and each dict key `_key_str(key)`,
    the last value kept where two keys give one string.  Strings are
    ASCII-only, with \\u escapes; a value of any other type raises
    TypeError, as json.dumps does."""
    if isinstance(v, str):
        out.append(_json_str(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, Fraction):
        out.append('"%s"' % v)
    elif isinstance(v, Expr):
        out.append(_json_str(sx.format_expr(v)))
    elif isinstance(v, float):
        out.append(_json_str(repr(v)))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for x in v:
            out.append(sep)
            _write_json(x, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, x in sorted({_key_str(k): x for k, x in v.items()}.items()):
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            _write_json(x, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(v).__name__)


def _json_report(report):
    """The canonical JSON text of a report, with a final newline.  The
    report and result keys of the schema are written in sorted order;
    only a result's args, data and notes go through `_write_json`."""
    out = ['{\n  "command": ', _json_str(report.command),
           ',\n  "mode": ', _json_str(report.mode),
           ',\n  "passed": ', "true" if report.passed else "false",
           ',\n  "results": ']
    sep = "[\n"
    for r in report.results:
        out += (sep, '    {\n      "args": ')
        _write_json(r.args, out, "      ")
        out.append(',\n      "data": ')
        _write_json(r.data, out, "      ")
        out.append(',\n      "notes": ')
        _write_json(r.notes, out, "      ")
        out += (',\n      "passed": ', "true" if r.passed else "false",
                ',\n      "provenance": ', _json_str(r.provenance),
                ',\n      "query": ', _json_str(r.query), "\n    }")
        sep = ",\n"
    out.append("\n  ]" if report.results else "[]")
    out += (',\n  "samples": ', int.__repr__(report.samples),
            ',\n  "schema": ', _json_str(SCHEMA),
            ',\n  "seed": ', int.__repr__(report.seed),
            ',\n  "source": ', _json_str(report.source), "\n}\n")
    return "".join(out)


def emit_report(report, fmt="text"):
    """Render a report: fmt "json" gives its canonical JSON text (see
    `_json_report`), whose bytes are fixed by the input file, the flags
    and the seed; any other fmt gives the text rendering, with each
    query's time."""
    if fmt == "json":
        return _json_report(report)
    lines = []
    lines.append("jetforge report (schema %s)" % SCHEMA)
    lines.append("command: %s   source: %s" % (report.command, report.source))
    lines.append("mode: %s   seed: %d   samples: %d" % (report.mode, report.seed, report.samples))
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        args = ", ".join("%s=%s" % (a, b) for a, b in sorted(r.args.items()))
        lines.append("[%s] %s(%s)   provenance: %s   (%.0f ms)" % (
            status, r.query, args, r.provenance, 1000 * r.elapsed))
        for note in r.notes:
            lines.append("    %s" % note)
    verdict = "PASS" if report.passed else "FAIL"
    lines.append("result: %s (%d quer%s)" % (
        verdict, len(report.results), "y" if len(report.results) == 1 else "ies"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# query execution


@dataclass
class CliFlags:
    order: int = 1
    samples: int = 8
    seed: int = 0
    mode: str = "exact"
    # "zero", "random", or the {(alpha, I): value} table of a free-data file
    free_data: object = "zero"
    pmax: int = None
    qmax: int = None


def _provenance(flags, sampled=False):
    if flags.mode == "float":
        return "float(%.0e)" % sy.FLOAT_RANK_TOL
    if sampled:
        return "sampled(%d, seed=%d)" % (flags.samples, flags.seed)
    return "exact"


def _random_jet_point(h, seed):
    rng = random.Random("chart:%s" % seed)
    chart = h.chart()
    base = tuple(sx.random_rational(rng, 4) for _ in range(h.m))
    jets = {}
    for alpha in range(1, h.n + 1):
        for I in chart.jet_indices():
            jets[(alpha, I)] = sx.random_rational(rng, 4)
    return jc.JetPoint(chart, base, jets)


def _query_args(q, h, flags):
    """The arguments of query q on the operator h as its report names
    them: each as the file gives it, by position or by keyword (the
    parser lets a parameter be given once), or else its default: l for
    prolong and codim defaults to flags.order, N for solve to the
    larger of order + 2 and flags.order, levels for tower to order + 2,
    and spencer's pmax and qmax to m and order + 2, with the flags
    --pmax and --qmax above the file; the other queries take none."""
    given = dict(zip(_QUERIES[q.name].params, q.args), **q.arg_dict())
    if q.name in ("prolong", "codim"):
        return {"l": given.get("l", flags.order)}
    if q.name == "solve":
        return {"N": given.get("N", max(h.order + 2, flags.order))}
    if q.name == "tower":
        return {"levels": given.get("levels", h.order + 2)}
    if q.name == "spencer":
        return {"pmax": given.get("pmax", h.m) if flags.pmax is None else flags.pmax,
                "qmax": given.get("qmax", h.order + 2) if flags.qmax is None else flags.qmax}
    return {}


def _run_prolong(h, args, flags):
    l = args["l"]
    P = jc.prolong_op(h, l)
    comps = []
    for (beta, I), e in zip(P.labels, P.components):
        comps.append({"beta": beta, "index": list(I), "expr": sx.format_expr(e)})
    data = {
        "order": l,
        "n_components": P.n_out,
        "components": comps,
    }
    return QueryResult("prolong", args, True, _provenance(flags), data)


def _run_symbol(h, args, flags):
    S = sy.symbol_of(h)
    # the table is ordered by beta, then I graded-lex, then alpha
    entries = [{"beta": beta, "alpha": alpha, "index": list(I), "coeff": sx.format_expr(c)}
               for (alpha, beta, I), c in S.items()]
    polys = {}
    if h.n == 1:
        for beta in range(1, h.n_out + 1):
            polys[str(beta)] = sx.format_expr(sy.symbol_polynomial(S, beta))
    data = {"order": h.order, "entries": entries, "polynomials": polys}
    return QueryResult("symbol", args, bool(S), _provenance(flags), data,
                       notes=[] if S else ["symbol vanishes identically"])


def _run_spencer(h, args, flags):
    pmax, qmax = args["pmax"], args["qmax"]
    if pmax < 0 or qmax < 0:
        raise ValueError("pmax and qmax must be nonnegative")
    a = _random_jet_point(h, flags.seed)
    g = sp.symbolic_system_at(h, a)
    dims = {str(qq): g.dim_g(qq) for qq in range(0, qmax + 1)}
    coh = sp.cohomology_dims(g, pmax, qmax)
    table = {"%d,%d" % key: val for key, val in sorted(coh.items())}
    nonzero = sorted(key for key, val in coh.items() if val)
    data = {
        "pmax": pmax, "qmax": qmax,
        "dim_g": dims,
        "cohomology": table,
        "nonzero_positions": [list(key) for key in nonzero],
    }
    notes = ["base point sampled with seed %d; arithmetic exact" % flags.seed]
    return QueryResult("spencer", args, True,
                       "exact", data, notes=notes)


def _run_integrability(h, args, flags):
    rep = ig.check_conditions(h, samples=flags.samples, seed=flags.seed, mode=flags.mode)
    conds = []
    for c in (rep.condition1, rep.condition2, rep.condition3):
        conds.append({
            "name": c.name, "passed": c.passed,
            "certified": c.certified, "detail": c.detail,
        })
    data = {"conditions": conds, "verdict": rep.verdict}
    notes = rep.lines()
    return QueryResult("integrability", args, rep.passed,
                       _provenance(flags, sampled=not all(c.certified for c in
                                                          (rep.condition1, rep.condition2, rep.condition3))),
                       data, notes=notes)


def _run_codim(h, args, flags):
    l = args["l"]
    rep = ig.variety_codim(h, l, samples=min(flags.samples, 10), seed=flags.seed)
    data = {
        "level": l, "expected": rep.expected,
        "observed": sorted(set(rep.observed)), "all_match": rep.all_match,
    }
    return QueryResult("codim", args, rep.all_match,
                       _provenance(flags, sampled=True), data, notes=[rep.summary()])


def _run_solve(h, args, flags):
    N = args["N"]
    policy, free_table = flags.free_data, None
    if isinstance(policy, dict):
        policy, free_table = "explicit", policy
    seed_pt = ig.sample_prolonged_points(h, 0, 1, "solve:%d" % flags.seed)[0]
    sol = fm.formal_solve(h, seed_pt, N, policy=policy, free_table=free_table,
                          seed="cli:%d" % flags.seed)
    r = min(N - h.order, 2)
    res = fm.verify_residual(sol, r, mode=flags.mode)
    data = {
        "order": N,
        "base_point": [v for v in sol.base],
        "series": sol.coefficients(),
        "free_counts": sol.free_counts,
        "residual_order": r,
        "residual_passed": res.passed,
    }
    notes = [res.summary(), "free parameters per level: %s" % (sol.free_counts,)]
    return QueryResult("solve", args, res.passed,
                       _provenance(flags, sampled=True), data, notes=notes)


def _run_tower(h, args, flags):
    levels = args["levels"]
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    E = pfd.EquationSubtower(h)
    dims = {str(i): E.dimension(i) for i in range(levels + 1)}
    pts = ig.sample_prolonged_points(h, 1, 1, "tower:%d" % flags.seed)
    member = E.membership(pts[0])
    n_surj = E.check_projection_surjectivity(1, samples=min(flags.samples, 4),
                                             seed=flags.seed)
    data = {
        "levels": levels,
        "dimensions": dims,
        "sampled_membership": member,
        "surjectivity_samples": n_surj,
    }
    notes = ["projection surjectivity witnessed at %d sampled points" % n_surj]
    return QueryResult("tower", args, bool(member),
                       _provenance(flags, sampled=True), data, notes=notes)


def _read_text(path):
    """The text of a UTF-8 input file; bytes that do not decode raise
    OSError, like a file that cannot be read at all."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise OSError("%s is not UTF-8 text: %s" % (path, err)) from None


def _load_free_data(path, h):
    """Free-data files hold lines 'u[(2,0)] = 1/3;' keyed by jet index.
    Malformed content raises ParseError at the offending token of a key
    or value that does not parse, else at the statement it is in; a key
    given twice is refused at its second statement."""
    text = _read_text(path)
    table = {}
    ctx = sx.ExprContext(h.m, n=h.n, order=64)
    for stmt, pos in _statements(text):
        key, at, value, value_at = _sides(stmt, pos)
        try:
            e = sx.parse_expr(key, ctx)
            terms = e.terms()
            if (len(terms) != 1 or len(terms[0][0]) != 1
                    or not isinstance(terms[0][0][0][0], JetVar)):
                raise ProblemError("free-data keys must be single jet variables")
            v = terms[0][0][0][0]
            at = value_at
            val = sx.parse_expr(value, ctx)
            if not val.is_constant():
                raise ProblemError("free-data values must be rational constants")
        except ParseError as err:
            raise ParseError("%s in %r" % (err.message, stmt), text, at + (err.pos or 0)) from None
        except (ValueError, sx.ExprError) as err:
            raise ParseError("%s in %r" % (err, stmt), text, pos) from None
        if (v.alpha, v.index) in table:
            raise ParseError("free-data key %s given twice" % key, text, pos)
        table[(v.alpha, v.index)] = val.constant_value()
    return table


class _QueryKind(NamedTuple):
    command: str  # the command that runs the query
    params: tuple  # the parameters it takes, in positional order
    run: object  # its runner, (h, args, flags) -> QueryResult


# every query by name: a command runs its queries in this order, and
# the first one is its default
_QUERIES = {
    "prolong": _QueryKind("prolong", ("l",), _run_prolong),
    "symbol": _QueryKind("symbol", (), _run_symbol),
    "spencer": _QueryKind("spencer", ("pmax", "qmax"), _run_spencer),
    "integrability": _QueryKind("integrability", (), _run_integrability),
    "codim": _QueryKind("integrability", ("l",), _run_codim),
    "solve": _QueryKind("solve", ("N",), _run_solve),
    "tower": _QueryKind("tower", ("levels",), _run_tower),
}

COMMANDS = tuple(dict.fromkeys(q.command for q in _QUERIES.values()))


def run_command(spec, command, flags, source="<memory>"):
    """Execute a command against a problem spec.

    Runs the file's queries of the command's kind; a file with no query
    section gets a single default query synthesized from the flags.  A
    file that declares queries, none matching, yields an empty report.
    """
    if command not in COMMANDS:
        raise ProblemError("unknown command %r" % command)
    kinds = [name for name, q in _QUERIES.items() if q.command == command]
    if spec.queries:
        queries = [q for q in spec.queries if q.name in kinds]
    else:
        queries = [Query(kinds[0])]
    h = spec.operator
    query_args = [_query_args(q, h, flags) for q in queries]
    for q, args in zip(queries, query_args):
        _refuse_oversized(h, q.name, args)
    results = []
    for q, args in zip(queries, query_args):
        t0 = time.perf_counter()
        try:
            r = _QUERIES[q.name].run(h, args, flags)
        except (RuntimeError, ValueError, OverflowError, sx.ExprError) as err:
            r = QueryResult(q.name, args, False, _provenance(flags),
                            {"error": str(err)}, notes=["error: %s" % err])
        r.elapsed = time.perf_counter() - t0
        results.append(r)
    return Report(command=command, source=source, seed=flags.seed,
                  samples=flags.samples, mode=flags.mode, results=results)


# ---------------------------------------------------------------------------
# size guards

# Requests whose estimate is above these are refused before any work.
# The largest in the corpus, the tests and the benchmark are below a
# tenth of them: the spencer tables of the benchmark (wave operator at
# m=4, pmax=4, qmax=5) reach 112896 matrix entries, the corpus prolongs
# to at most 15 components, and its largest term degree is 4.  Exact
# evaluation raises numbers to the term degree (`Expr.degree`).  They
# ask for at most 25 samples (the default 8 through `--samples`), and
# integrability samples, ranks and lifts about three points per sample.
MAX_MATRIX_ENTRIES = 2_000_000
MAX_PROLONGED_COMPONENTS = 2_000
MAX_TERM_DEGREE = 200
MAX_SAMPLES = 1_000


def spencer_matrix_entries(m, n, pmax, qmax):
    """Estimated entries of the largest matrix a Spencer table through
    (pmax, qmax) builds, with dim g_q bounded by dim Sym^q (x) R^n, so
    the operator order does not enter.

    The table ranks delta on wedge(p) (x) g_q for
    1 <= p <= min(pmax, m - 1) and q <= qmax + 1 (the rank for p = 0 is
    dim g_q), built only at the rows of the free coordinates of
    g_(q-1), so of at most C(m, p+1) dim Sym^(q-1) rows and
    C(m, p) dim g_q columns; it also builds the prolonged constraints
    A_q, of at most m dim Sym^(q-1) rows and dim Sym^q columns.  Both
    grow with q, so q = qmax + 1 bounds them.  The estimate still counts
    p = 0 and every ambient row, the size of `spencer.restricted_delta`,
    so it bounds the matrices built from above.
    """
    top = qmax + 1

    def sym(q):
        return comb(m + q - 1, q) * n if q >= 0 else 0

    entries = m * sym(top - 1) * sym(top)
    for p in range(min(pmax, m - 1) + 1):
        entries = max(entries, comb(m, p + 1) * sym(top - 1) * comb(m, p) * sym(top))
    return entries


def prolonged_components(m, n_out, l):
    """Components of the order-l prolongation: D_I h_beta for |I| <= l."""
    return n_out * comb(m + l, l)


def _refuse_oversized(h, name, args):
    """Raise ProblemError when h has a term of degree above
    MAX_TERM_DEGREE, or when a spencer, prolong, codim, solve or tower
    query on h, named name with the arguments args of `_query_args`,
    would build more than the module bounds allow: prolong(l)
    and codim(l) prolong to level l, solve(N) to level N - k, and
    tower(levels) builds jet charts up to order levels, whose top one
    has as many jet coordinates as an order-levels prolongation of n
    components.  Bounds of the wrong type or sign are left to the query
    itself, which reports them."""
    degree = max(c.degree() for c in h.components)
    if degree > MAX_TERM_DEGREE:
        raise ProblemError(
            "the operator is too large: it has a term of total degree %d, above the "
            "limit of %d" % (degree, MAX_TERM_DEGREE))
    m, n, n_out, order = h.m, h.n, h.n_out, h.order
    if name == "spencer":
        pmax, qmax = args["pmax"], args["qmax"]
        if _nonnegative_int(pmax) and _nonnegative_int(qmax):
            entries = spencer_matrix_entries(m, n, pmax, qmax)
            if entries > MAX_MATRIX_ENTRIES:
                raise ProblemError(
                    "spencer(pmax=%d, qmax=%d) is too large: its largest matrix has up to "
                    "%d entries, above the limit of %d" % (pmax, qmax, entries, MAX_MATRIX_ENTRIES))
    elif name in ("prolong", "codim", "solve"):
        if name == "solve":
            arg = args["N"]
            l = arg - order if type(arg) is int else None
        else:
            arg = l = args["l"]
        if _nonnegative_int(l):
            count = prolonged_components(m, n_out, l)
            if count > MAX_PROLONGED_COMPONENTS:
                raise ProblemError(
                    "%s(%d) is too large: %d components, above the limit of %d"
                    % (name, arg, count, MAX_PROLONGED_COMPONENTS))
    elif name == "tower":
        levels = args["levels"]
        if _nonnegative_int(levels):
            count = prolonged_components(m, n, levels)
            if count > MAX_PROLONGED_COMPONENTS:
                raise ProblemError(
                    "tower(%d) is too large: its top chart has %d jet coordinates, "
                    "above the limit of %d" % (levels, count, MAX_PROLONGED_COMPONENTS))


def _nonnegative_int(v):
    return type(v) is int and v >= 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_argparser():
    """The command-line parser, built once per process; parsing leaves
    it unchanged."""
    ap = argparse.ArgumentParser(
        prog="jetforge",
        description="symbolic jet calculus: prolongation, symbols, Spencer "
                    "cohomology, integrability checks, formal solutions, towers",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("file", help="problem file")
    ap.add_argument("--order", type=int, default=1, help="prolongation order / solve order fallback")
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("exact", "float"), default=None)
    ap.add_argument("--free-data", default="zero",
                    help="zero | random | file:PATH (formal solve free parameters)")
    ap.add_argument("--pmax", type=int, default=None)
    ap.add_argument("--qmax", type=int, default=None)
    ap.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH",
                    help="emit canonical JSON (to PATH, or stdout)")
    return ap


def _cli_flags(ns, spec):
    """The CliFlags of the parsed command line ns for spec, with a
    free-data file read and checked once, before any query runs.
    Raises ProblemError for a flag that cannot be used, and what
    `_load_free_data` raises for a free-data file."""
    mode = ns.mode
    if spec.float_literals:
        if mode == "exact":
            raise ProblemError("file contains decimal literals; exact mode unavailable")
        mode = "float"
    free_data = ns.free_data
    if free_data not in ("zero", "random") and not free_data.startswith("file:"):
        raise ProblemError("--free-data must be zero, random, or file:PATH")
    if ns.samples < 1:
        raise ProblemError("--samples must be at least 1")
    if ns.samples > MAX_SAMPLES:
        raise ProblemError("--samples %d is too large: above the limit of %d"
                           % (ns.samples, MAX_SAMPLES))
    if ns.order < 0:
        raise ProblemError("--order must be nonnegative")
    if any(v is not None and v < 0 for v in (ns.pmax, ns.qmax)):
        raise ProblemError("--pmax and --qmax must be nonnegative")
    if free_data.startswith("file:"):
        free_data = _load_free_data(free_data[5:], spec.operator)
    return CliFlags(order=ns.order, samples=ns.samples, seed=ns.seed, mode=mode or "exact",
                    free_data=free_data, pmax=ns.pmax, qmax=ns.qmax)


def _located(err):
    """The error line for a ParseError: its message, then the line and
    column of its position in its text."""
    pos = err.pos or 0
    line = err.text.count("\n", 0, pos) + 1
    col = pos - (err.text.rfind("\n", 0, pos) + 1) + 1
    return "error: %s (line %d, col %d)" % (err.message, line, col)


def main(argv=None):
    ns = _build_argparser().parse_args(argv)
    try:
        spec = parse_problem_file(_read_text(ns.file))
        report = run_command(spec, ns.command, _cli_flags(ns, spec), source=ns.file)
        if ns.json not in (None, "-"):
            with open(ns.json, "w", encoding="utf-8") as fh:
                fh.write(emit_report(report, "json"))
    except ParseError as err:
        print(_located(err), file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, "json" if ns.json == "-" else "text"))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
