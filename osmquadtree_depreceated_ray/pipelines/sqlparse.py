"""SQL string front-end for the sqlish surface (reference sqlselect
grammar, sqlselect/sql.go:1-977 goyacc + altlex.go:1-509 ``Parse`` at
:501-509).  A user with a raw SQL string gets the same entry point the
reference exposes: the string is parsed here and compiled onto the
existing :mod:`.sqlish` Expr/Query layer (pyarrow.compute kernels inside
``map_batches``), so execution is identical to the combinator API.

Surface (the reference's grammar, plus LIMIT):

    SELECT [DISTINCT] expr [AS name], ... projection + scalar functions,
                                          aggregates incl. fn(DISTINCT x)
    FROM table | schema.table             (qualified name -> bare table,
         | (SELECT ...) [AS] t             sql.y pickTable($3))
         | (VALUES (..),(..)) t(a, b)     literal table
      [[LEFT|RIGHT|FULL [OUTER] | INNER]
        JOIN table ON a = b | USING (c)]  equi-join (planned broadcast
                                          vs bucketed hash shuffle;
                                          outer joins preserve unmatched
                                          rows; NULL keys never match
                                          but outer-preserved rows still
                                          surface; RIGHT/FULL always
                                          take the shuffle path)
    WHERE expr                            AND/OR/NOT, comparisons,
                                          [NOT] LIKE/BETWEEN/IN (list or
                                          subquery), IS [NOT] NULL,
                                          [NOT] EXISTS (subquery),
                                          scalar (SELECT ...) literals,
                                          bitwise & | # ~ << >>
    GROUP BY [ROLLUP|CUBE|GROUPING SETS (] ... [)]
                  [HAVING expr]           (keys may be expressions or
                                          SELECT aliases; aggregates
                                          accept FILTER (WHERE ...))
    QUALIFY expr                          filter on window results (may
                                          reference SELECT aliases;
                                          composes with GROUP BY)
    ORDER BY expr [ASC|DESC], ... / LIMIT n [OFFSET m]
    <select> UNION [ALL] <select>         (non-ALL deduplicates)
    <select> INTERSECT|EXCEPT [ALL|DISTINCT] <select>
                                          (distinct set semantics;
                                          ALL keeps multiplicities)
    WITH name AS (query) [, ...] <query>  (CTEs, planned once in order
                                          into a shadowed table map;
                                          RECURSIVE rejected)

Scalar functions: coalesce nullif replace substr char_length/length
concat upper lower trim ltrim rtrim reverse abs sign floor ceil round
sqrt ln starts_with ends_with contains strpos left right repeat
md5 regexp_extract regexp_replace split_part lpad rpad greatest least,
string_split/str_split/string_to_array (list-valued) with
UNNEST(list_expr) as a SELECT item (row explode — one streaming
map_batches flatten, one UNNEST per select list),
numchar maxwidth (reference functions.go:52-94),
temporal year/month/day/hour/minute/second, EXTRACT(field FROM ts)
(incl. dow, Sunday=0), date_trunc(unit, ts), arithmetic + - * / % and
|| concatenation, searched and simple CASE, IS [NOT] DISTINCT FROM
(null-safe), statistical aggregates STDDEV/VAR[_SAMP|_POP]/MEDIAN,
boolean aggregates BOOL_AND/BOOL_OR (map-side combinable),
ORDER BY ... [ASC|DESC] [NULLS FIRST|LAST].

Window functions (beyond the reference grammar): row_number rank
dense_rank ntile percent_rank cume_dist sum count min max avg lag lead
first_value, each as ``fn(args) OVER ([PARTITION BY cols] [ORDER BY
cols [ASC|DESC]] [ROWS BETWEEN {n|UNBOUNDED} PRECEDING AND
{CURRENT ROW | m FOLLOWING}])``; the default frame is SQL's RANGE
UNBOUNDED PRECEDING..CURRENT ROW (peer rows share their group's
cumulative value), an explicit ROWS frame is physical rows (moving /
centered aggregates; FOLLOWING ends use an exact trailing+leading
rolling decomposition).  Window ORDER BY entries are full expressions,
including aggregate calls over a GROUP BY (two-phase: one bucketed
aggregate exchange, then windows over the aggregated table — the
top-N-groups idiom ``RANK() OVER (ORDER BY COUNT(*) DESC)``).  Execution: one bucketed hash
exchange per distinct PARTITION BY signature; inside each bucket the
kernels are pandas groupby primitives (cumsum/cumcount/shift/transform)
— vectorized, no per-row Python.  A window without PARTITION BY is a
total order and runs single-bucket (inherently serial on ANY engine).

[NOT] EXISTS and IN / NOT IN (subquery) resolve at plan time through
one semi-join primitive (:func:`_semi_join`; a correlated EXISTS takes a
single correlation equality, the same contract as IN).  The value
subquery runs once, with no DISTINCT exchange: each block dedups with
``pc.unique``.  A set of at most ``broadcast_threshold`` values (the
``parse_sql`` parameter joins use) gathers into one deduped Arrow
array on the driver and ships once by ``ray.put``; every batch probes
it with ``pc.is_in`` under the 3VL of ``Expr.isin``.  LARGER sets never
touch the driver: they become a deduped marker relation LEFT-joined
onto the outer query through the bucketed hash exchange
(:func:`_pending_semi_join`), with the probe reduced to a null-test on
the marker.  Uncorrelated scalar subqueries resolve eagerly to
literals.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .sqlish import Expr, Query, case_when, col, in_3vl, lit

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d+|\d+)"
    r"|(?P<str>'(?:[^']|'')*')"
    r"|(?P<op>\|\||//|<<|>>|<=|>=|<>|!=|=|<|>|\(|\)|,|\+|-|\*|/|%|\.|&|\||~|#)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r")"
)

_KEYWORDS = {
    "select", "from", "where", "order", "by", "limit", "union", "all",
    "join", "on", "using", "as", "and", "or", "not", "like", "between", "in",
    "is", "null", "case", "when", "then", "else", "end", "asc", "desc",
    "distinct", "group", "cast", "having", "over", "partition", "exists",
    "left", "inner", "outer", "right", "full", "rows", "preceding",
    "unbounded", "current", "row", "following", "filter", "offset",
    "qualify", "intersect", "except", "rollup", "cube", "with",
    "recursive", "range", "cross",
}
# NOTE: "nulls"/"first"/"last" are deliberately NOT reserved — they are
# matched contextually in the ORDER BY tail so columns with those names
# keep parsing as identifiers (DuckDB treats them as unreserved too).


def _tokenize(sql: str) -> list[tuple[str, str]]:
    out = []
    i = 0
    while i < len(sql):
        m = _TOKEN_RE.match(sql, i)
        if not m:
            if sql[i:].strip() == "":
                break
            raise ValueError(f"SQL tokenize error at: {sql[i:i+20]!r}")
        i = m.end()
        if m.lastgroup == "num":
            out.append(("num", m.group("num")))
        elif m.lastgroup == "str":
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.lastgroup == "op":
            out.append(("op", m.group("op")))
        else:
            word = m.group("ident")
            if word.lower() in _KEYWORDS:
                out.append(("kw", word.lower()))
            else:
                out.append(("ident", word))
    out.append(("eof", ""))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    # -- token helpers -------------------------------------------------------
    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, kind, value=None):
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            return self.next()
        return None

    def expect(self, kind, value=None):
        t = self.accept(kind, value)
        if t is None:
            raise ValueError(
                f"SQL parse error: expected {value or kind}, got {self.peek()}")
        return t

    # -- grammar -------------------------------------------------------------
    def parse_query(self, nested=False):
        """query := select ((UNION [ALL] | INTERSECT | EXCEPT) select)*
        [ORDER BY ...] [LIMIT n [OFFSET m]] (UNION without ALL
        deduplicates, sqlselect/sql.go; INTERSECT/EXCEPT use SQL's
        distinct set semantics, applied LEFT-ASSOCIATIVELY — unlike the
        standard, INTERSECT does not bind tighter here); nested=True
        parses a parenthesized derived-table body (stops before ')')"""
        selects = [self.parse_select()]
        set_ops = []
        while True:
            if self.accept("kw", "union"):
                set_ops.append(
                    "union_all" if self.accept("kw", "all") else "union")
            elif self.accept("kw", "intersect"):
                # ALL keeps bag multiplicities; DISTINCT is the default
                if self.accept("kw", "all"):
                    set_ops.append("intersect_all")
                else:
                    self.accept("kw", "distinct")
                    set_ops.append("intersect")
            elif self.accept("kw", "except"):
                if self.accept("kw", "all"):
                    set_ops.append("except_all")
                else:
                    self.accept("kw", "distinct")
                    set_ops.append("except")
            else:
                break
            selects.append(self.parse_select())
        order, desc, nulls = None, None, None
        if self.accept("kw", "order"):
            self.expect("kw", "by")
            order, desc, nulls = [], [], []
            while True:
                # full expressions (ORDER BY v + k, length(s) DESC); a
                # plain (possibly alias-qualified) column stays a direct
                # sort key, anything else sorts on a synthetic column
                order.append(self.parse_expr())
                if self.accept("kw", "desc"):
                    desc.append(True)
                else:
                    self.accept("kw", "asc")
                    desc.append(False)
                # NULLS FIRST | NULLS LAST (explicit placement via an
                # is-null indicator key; engine default matches DuckDB's
                # nulls_last on the oracle-tested data).  Matched
                # contextually — "nulls"/"first"/"last" stay unreserved.
                k, v = self.peek()
                if k == "ident" and v.lower() == "nulls":
                    self.next()
                    w = self.expect("ident")[1].lower()
                    if w not in ("first", "last"):
                        raise ValueError(
                            f"expected FIRST or LAST after NULLS, got {w}")
                    nulls.append(w)
                else:
                    nulls.append(None)
                if not self.accept("op", ","):
                    break
        limit = None
        offset = 0
        if self.accept("kw", "limit"):
            limit = int(self.expect("num")[1])
            if self.accept("kw", "offset"):
                offset = int(self.expect("num")[1])
        if not nested:
            self.expect("eof")
        return {"selects": selects, "set_ops": set_ops,
                "order": order, "desc": desc, "nulls": nulls,
                "limit": limit, "offset": offset}

    def parse_select(self):
        self.expect("kw", "select")
        distinct = bool(self.accept("kw", "distinct"))
        items = []
        if self.accept("op", "*"):
            items = None  # SELECT *
        else:
            while True:
                e = self.parse_expr()
                name = None
                if self.accept("kw", "as"):
                    name = self.expect("ident")[1]
                items.append((e, name))
                if not self.accept("op", ","):
                    break
        self.expect("kw", "from")
        if self.accept("op", "("):
            if (self.peek()[0] == "ident"
                    and self.peek()[1].lower() == "values"):
                # (VALUES (..),(..)) [AS] t[(c1, c2)] — sql.y's literal
                # table production ('(' VALUES tuple_list ')')
                table = self._parse_values_table()
            else:
                # derived table: FROM (SELECT ...) [AS] alias — the inner
                # query plans/executes first and feeds the outer pipeline
                sub = self.parse_query(nested=True)
                self.expect("op", ")")
                self.accept("kw", "as")
                alias = self.expect("ident")[1]
                table = ("derived", sub, alias)
        else:
            table = self.expect("ident")[1]
            if self.accept("op", "."):
                # schema-qualified name: the reference resolves the bare
                # table (sql.y simple_table_expression: pickTable($3))
                table = self.expect("ident")[1]
            self._accept_alias()
        joins = []
        while True:
            # SQL-89 comma join: FROM t, u [, ...] == chained CROSS
            # JOIN (the WHERE clause carries the join predicate)
            if self.accept("op", ","):
                if self.peek() == ("op", "("):
                    self.next()
                    sub = self.parse_query(nested=True)
                    self.expect("op", ")")
                    jt = ("derived", sub, None)
                else:
                    jt = self.expect("ident")[1]
                    if self.accept("op", "."):
                        jt = self.expect("ident")[1]
                self._accept_alias()
                joins.append((jt, (), (), "cross", None))
                continue
            # LEFT/RIGHT/FULL [OUTER] / INNER JOIN, chained — beyond the
            # reference grammar (sql.y's join_type is plain JOIN only),
            # but unavoidable for real use
            how = None
            if self.accept("kw", "left"):
                self.accept("kw", "outer")
                how = "left"
            elif self.accept("kw", "right"):
                self.accept("kw", "outer")
                how = "right"
            elif self.accept("kw", "full"):
                self.accept("kw", "outer")
                how = "full"
            elif self.accept("kw", "inner"):
                how = "inner"
            elif self.accept("kw", "cross"):
                how = "cross"
            if how is None:
                if not self.accept("kw", "join"):
                    break
                how = "inner"
            else:
                self.expect("kw", "join")
            # [CROSS|LEFT|INNER] JOIN LATERAL (SELECT ...) — matched
            # contextually so "lateral" stays unreserved
            lat = False
            pk, pv = self.peek()
            if pk == "ident" and pv.lower() == "lateral":
                self.next()
                lat = True
                if how in ("right", "full"):
                    raise ValueError(
                        "RIGHT/FULL JOIN LATERAL is not valid SQL")
            if self.peek() == ("op", "("):
                # JOIN (SELECT ...) alias — derived table as join RHS
                self.next()
                sub = self.parse_query(nested=True)
                self.expect("op", ")")
                jt = ("lateral", sub, None) if lat \
                    else ("derived", sub, None)
            else:
                if lat:
                    raise ValueError(
                        "LATERAL requires a parenthesized subquery")
                jt = self.expect("ident")[1]
                if self.accept("op", "."):
                    jt = self.expect("ident")[1]
            if lat:
                self._accept_alias()
                if self.accept("kw", "on"):
                    tk, tv = self.peek()
                    if not (tk == "ident" and tv.lower() == "true"):
                        raise ValueError(
                            "a LATERAL join condition must be ON TRUE "
                            "(correlate inside the subquery's WHERE)")
                    self.next()
                joins.append((jt, (), (), how, None))
                continue
            had_using_or_on = self.peek() in (("kw", "using"), ("kw", "on"))
            if not had_using_or_on:
                self._accept_alias()
                had_using_or_on = self.peek() in (("kw", "using"),
                                                  ("kw", "on"))
            if how == "cross":
                # CROSS JOIN takes no condition
                joins.append((jt, (), (), "cross", None))
                continue
            if self.accept("kw", "using"):
                # JOIN t USING (col, ...) — the reference grammar's join
                # form (sqlselect/sql.go): both sides share the names
                self.expect("op", "(")
                cols = [self.expect("ident")[1]]
                while self.accept("op", ","):
                    cols.append(self.expect("ident")[1])
                self.expect("op", ")")
                joins.append((jt, tuple(cols), tuple(cols), how, None))
            else:
                self.expect("kw", "on")
                on_start = self.i

                def _qcol():
                    c = self.expect("ident")[1]
                    q = None
                    if self.accept("op", "."):
                        q, c = c, self.expect("ident")[1]
                    return q, c

                # conjunct-wise parse: plain `qcol = qcol` equalities
                # become hash-join keys; everything else accumulates
                # into a residual theta predicate.  A top-level OR makes
                # the whole ON a single residual (no equi keys).
                _ENDS = {"and", "where", "group", "order", "limit",
                         "having", "qualify", "union", "intersect",
                         "except", "offset", "left", "right", "full",
                         "inner", "cross", "join", "or"}
                pairs: list = []
                res_conj: list = []
                disjunctive = False
                while True:
                    save = self.i
                    pair = None
                    if self.peek()[0] == "ident":
                        try:
                            lq, lcol = _qcol()
                            if self.accept("op", "="):
                                if self.peek()[0] == "ident":
                                    rq, rcol = _qcol()
                                    nk, nv = self.peek()
                                    if (nk == "eof"
                                            or (nk == "op" and nv == ")")
                                            or (nk == "kw"
                                                and nv in _ENDS)):
                                        pair = (lq, lcol, rq, rcol)
                        except ValueError:
                            pair = None
                    if pair is None:
                        self.i = save
                        res_conj.append(self.parse_not())
                    else:
                        lq, lcol, rq, rcol = pair
                        # qualifiers fix the side when the user wrote
                        # the join table's column first (ON t2.g = t1.k)
                        if lq == jt and rq != jt:
                            lcol, rcol = rcol, lcol
                        pairs.append((lcol, rcol))
                    if self.peek() == ("kw", "or"):
                        disjunctive = True
                        break
                    if not self.accept("kw", "and"):
                        break
                if disjunctive:
                    # re-parse the whole ON as one residual expression
                    self.i = on_start
                    joins.append((jt, (), (), how, self.parse_expr()))
                else:
                    residual = None
                    if res_conj:
                        residual = res_conj[0]
                        for c in res_conj[1:]:
                            residual = ("and", residual, c)
                    joins.append((jt, tuple(p[0] for p in pairs),
                                  tuple(p[1] for p in pairs), how,
                                  residual))
        join = joins or None
        where = None
        if self.accept("kw", "where"):
            where = self.parse_expr()
        group = None
        having = None
        rollup = False
        gsets = None
        if self.accept("kw", "group"):
            self.expect("kw", "by")
            group = []
            if (self.peek() in (("kw", "rollup"), ("kw", "cube"))):
                # GROUP BY ROLLUP (a, b, ..): hierarchical subtotal
                # levels (a,b), (a), (); CUBE: ALL key subsets —
                # executed as one grouped exchange per level, unioned
                rollup = self.next()[1]
                self.expect("op", "(")
                while True:
                    group.append(self.parse_expr())
                    if not self.accept("op", ","):
                        break
                self.expect("op", ")")
            elif (self.peek()[0] == "ident"
                  and self.peek()[1].lower() == "grouping"
                  and self.toks[self.i + 1][0] == "ident"
                  and self.toks[self.i + 1][1].lower() == "sets"):
                # GROUP BY GROUPING SETS ((a, b), (a), ()): explicit
                # aggregation levels — same per-level grouped-exchange
                # executor as ROLLUP/CUBE, levels given by the user.
                # A bare expr is a one-key set; () is the grand total.
                self.next()
                self.next()
                self.expect("op", "(")
                rollup = "sets"
                raw = []
                while True:
                    if self.accept("op", "("):
                        s = []
                        if not self.accept("op", ")"):
                            while True:
                                s.append(self.parse_expr())
                                if not self.accept("op", ","):
                                    break
                            self.expect("op", ")")
                        raw.append(s)
                    else:
                        raw.append([self.parse_expr()])
                    if not self.accept("op", ","):
                        break
                self.expect("op", ")")
                for s in raw:
                    for e in s:
                        if e not in group:
                            group.append(e)
                gsets = [[group.index(e) for e in s] for s in raw]
            else:
                while True:
                    # full expressions (GROUP BY k % 10, substr(s, 1, 4),
                    # or a SELECT alias) — normalized at execution time
                    group.append(self.parse_expr())
                    if not self.accept("op", ","):
                        break
            if self.accept("kw", "having"):
                having = self.parse_expr()
        qualify = None
        if self.accept("kw", "qualify"):
            # QUALIFY: filter on window-function results (the window
            # analogue of HAVING); may reference SELECT aliases
            qualify = self.parse_expr()
        return {"items": items, "table": table, "join": join,
                "qualify": qualify, "rollup": rollup, "gsets": gsets,
                "where": where, "distinct": distinct, "group": group,
                "having": having}

    # expression precedence: or < and < not < comparison < add < mul < unary
    def parse_expr(self):
        e = self.parse_and()
        while self.accept("kw", "or"):
            e = ("or", e, self.parse_and())
        return e

    def parse_and(self):
        e = self.parse_not()
        while self.accept("kw", "and"):
            e = ("and", e, self.parse_not())
        return e

    def parse_not(self):
        if self.accept("kw", "not"):
            return ("not", self.parse_not())
        if self.peek() == ("kw", "exists"):
            # [NOT] EXISTS (subquery) — resolved at plan time into a
            # semi/anti value-set probe (single-equality correlation)
            self.next()
            self.expect("op", "(")
            sub = self.parse_select()
            self.expect("op", ")")
            return ("exists", sub)
        return self.parse_cmp()

    def parse_cmp(self):
        e = self.parse_bit()
        k, v = self.peek()
        # postfix negated forms: x NOT IN (...) / NOT LIKE / NOT BETWEEN
        # (sql.y condition productions) — distinct from prefix NOT, which
        # parse_not handles at boolean level
        if (k == "kw" and v == "not"
                and self.toks[self.i + 1][1] in ("in", "like", "between")):
            self.next()
            k, v = self.peek()
            if v == "like":
                self.next()
                return ("not", ("like", e, self.expect("str")[1]))
            if v == "between":
                self.next()
                lo = self.parse_bit()
                self.expect("kw", "and")
                hi = self.parse_bit()
                return ("not", ("between", e, lo, hi))
            return _negate_in(e, self._parse_in_tail(e))
        if k == "op" and v in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            opn = {"=": "eq", "<>": "ne", "!=": "ne", "<": "lt",
                   "<=": "le", ">": "gt", ">=": "ge"}[v]
            nk, nv = self.peek()
            if (nk in ("kw", "ident")
                    and str(nv).lower() in ("any", "all", "some")):
                # quantified comparison: x op ANY/ALL (subquery) —
                # resolved at plan time from four subquery-side scalars
                # (min / max / count / non-null count)
                quant = "all" if str(nv).lower() == "all" else "any"
                self.next()
                self.expect("op", "(")
                if self.peek() != ("kw", "select"):
                    raise ValueError("ANY/ALL requires a subquery")
                sub = self.parse_select()
                self.expect("op", ")")
                return ("quant", opn, e, quant, sub)
            return (opn, e, self.parse_bit())
        if k == "kw" and v == "like":
            self.next()
            return ("like", e, self.expect("str")[1])
        if k == "kw" and v == "between":
            self.next()
            lo = self.parse_bit()
            self.expect("kw", "and")
            hi = self.parse_bit()
            return ("between", e, lo, hi)
        if k == "kw" and v == "in":
            return self._parse_in_tail(e)
        if k == "kw" and v == "is":
            self.next()
            neg = bool(self.accept("kw", "not"))
            if self.accept("kw", "distinct"):
                # IS [NOT] DISTINCT FROM: null-safe equality.
                # IS NOT DISTINCT FROM = (both null) OR (both non-null
                # and equal) — never NULL, so the plain NOT is safe
                self.expect("kw", "from")
                b = self.parse_bit()
                same = ("or",
                        ("and", ("isnull", e), ("isnull", b)),
                        ("and", ("and", ("notnull", e), ("notnull", b)),
                         ("eq", e, b)))
                return same if neg else ("not", same)
            self.expect("kw", "null")
            return ("notnull" if neg else "isnull", e)
        return e

    def _parse_in_tail(self, e):
        self.expect("kw", "in")
        self.expect("op", "(")
        if self.peek() == ("kw", "select"):
            # IN (subquery) — sqlselect/sql.go grammar; resolved at
            # plan time (the subquery runs first, its first column
            # becomes the value set)
            sub = self.parse_select()
            self.expect("op", ")")
            return ("in_sub", e, sub)
        vals = []
        while True:
            neg = bool(self.accept("op", "-"))
            tk, tv = self.next()
            if tk == "num":
                v = float(tv) if "." in tv else int(tv)
                vals.append(-v if neg else v)
            elif neg:
                raise ValueError(f"SQL parse error at ('{tk}', {tv!r})")
            elif tk == "str":
                vals.append(tv)
            elif (tk, tv) == ("kw", "null"):
                vals.append(None)  # SQL NULL, kept for 3VL handling
            else:
                raise ValueError(f"SQL parse error at ('{tk}', {tv!r})")
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        return ("in", e, vals)

    def parse_bit(self):
        # bitwise & | # << >> — one "any other operator" level between
        # comparison and additive, matching Postgres/DuckDB precedence
        # (sql.y: value_expression '&' / BR / shifts)
        e = self.parse_add()
        while True:
            k, v = self.peek()
            if k == "op" and v in ("&", "|", "#", "<<", ">>"):
                self.next()
                e = ({"&": "bitand", "|": "bitor", "#": "bitxor",
                      "<<": "shiftl", ">>": "shiftr"}[v],
                     e, self.parse_add())
            else:
                return e

    def parse_add(self):
        e = self.parse_mul()
        while True:
            if self.accept("op", "+"):
                e = ("add", e, self.parse_mul())
            elif self.accept("op", "-"):
                e = ("sub", e, self.parse_mul())
            elif self.accept("op", "||"):
                e = ("concat2", e, self.parse_mul())
            else:
                return e

    def parse_mul(self):
        e = self.parse_unary()
        while True:
            if self.accept("op", "*"):
                e = ("mul", e, self.parse_unary())
            elif self.accept("op", "//"):
                e = ("idiv", e, self.parse_unary())
            elif self.accept("op", "/"):
                e = ("div", e, self.parse_unary())
            elif self.accept("op", "%"):
                e = ("mod", e, self.parse_unary())
            else:
                return e

    def parse_unary(self):
        if self.accept("op", "-"):
            return ("neg", self.parse_unary())
        if self.accept("op", "~"):
            return ("bitnot", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        k, v = self.peek()
        # LEFT/RIGHT/FILTER are keywords (join types / FILTER clause)
        # but also SQL function names — a following '(' disambiguates
        if (k == "kw" and v in ("left", "right", "filter")
                and self.i + 1 < len(self.toks)
                and self.toks[self.i + 1] == ("op", "(")):
            k = "ident"
        if k == "num":
            self.next()
            return ("lit", float(v) if "." in v else int(v))
        if k == "str":
            self.next()
            return ("lit", v)
        if k == "kw" and v == "case":
            return self.parse_case()
        if k == "kw" and v == "cast":
            self.next()
            self.expect("op", "(")
            e = self.parse_expr()
            self.expect("kw", "as")
            typ = self.expect("ident")[1].lower()
            self.expect("op", ")")
            return ("cast", e, typ)
        if k == "kw" and v == "null":
            self.next()
            return ("lit", None)
        if k == "op" and v == "(":
            self.next()
            if self.peek() == ("kw", "select"):
                # scalar subquery in expression position, e.g.
                # x > (SELECT avg(x) FROM t) — uncorrelated; resolved
                # eagerly at plan time to a literal
                sub = self.parse_select()
                self.expect("op", ")")
                return ("scalar_sub", sub)
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if k == "ident" and v.lower() in ("timestamp", "date") \
                and self.i + 1 < len(self.toks) \
                and self.toks[self.i + 1][0] == "str":
            # TIMESTAMP '...' / DATE '...' literals, both as
            # microsecond timestamps (DATE at midnight — DuckDB
            # promotes DATE to TIMESTAMP in mixed comparisons)
            self.next()
            sv = self.next()[1].strip()
            try:
                tsv = np.datetime64(sv.replace(" ", "T"), "us")
            except ValueError:
                raise ValueError(f"bad {v.upper()} literal {sv!r}") \
                    from None
            return ("lit", tsv)
        if k == "ident" and v.lower() == "interval" \
                and self.i + 1 < len(self.toks) \
                and self.toks[self.i + 1][0] in ("num", "str"):
            # INTERVAL <n> <unit> / INTERVAL '<n> <unit>' — fixed-width
            # units only (microsecond-exact); calendar-variable
            # MONTH/YEAR are rejected rather than approximated
            self.next()
            nk, nv = self.next()
            if nk == "str":
                bits = nv.strip().split()
                if len(bits) != 2:
                    raise ValueError(f"bad INTERVAL literal {nv!r}")
                num, unit = bits
            else:
                num = nv
                unit = self.expect("ident")[1]
            n = float(num) if "." in str(num) else int(num)
            u = unit.lower().rstrip("s")
            mult = {"microsecond": 1, "millisecond": 1_000,
                    "second": 1_000_000, "minute": 60_000_000,
                    "hour": 3_600_000_000, "day": 86_400_000_000,
                    "week": 7 * 86_400_000_000}.get(u)
            if mult is None:
                raise ValueError(
                    f"INTERVAL unit {unit!r} unsupported "
                    "(calendar-variable MONTH/YEAR are out of scope)")
            return ("interval", int(n * mult))
        if k == "ident":
            self.next()
            if self.accept("op", "("):
                if v.lower() == "extract":
                    # EXTRACT(field FROM expr) — FROM inside the parens
                    # is part of the syntax, not a table clause
                    field = self.expect("ident")[1].lower()
                    self.expect("kw", "from")
                    e = self.parse_expr()
                    self.expect("op", ")")
                    return ("call", "extract", [("lit", field), e])
                args = []
                # fn(DISTINCT expr, ...) — sql.y's distinct-aggregate
                # production; compiles to a distinct-agg spec
                is_distinct = bool(self.accept("kw", "distinct"))
                if self.accept("op", "*"):
                    # COUNT(*)
                    args.append(("star",))
                    self.expect("op", ")")
                elif not self.accept("op", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept("op", ","):
                            break
                    if (v.lower() == "string_agg"
                            and self.accept("kw", "order")):
                        # string_agg(x, sep ORDER BY x [ASC|DESC]) —
                        # the deterministic subset: the order key must
                        # be the aggregated expression itself (one
                        # column travels through the exchange)
                        self.expect("kw", "by")
                        oexpr = self.parse_expr()
                        if oexpr != args[0]:
                            raise ValueError(
                                "string_agg ORDER BY must be the "
                                "aggregated expression itself")
                        desc = bool(self.accept("kw", "desc"))
                        if not desc:
                            self.accept("kw", "asc")
                        args.append(("lit", "desc" if desc else "asc"))
                    self.expect("op", ")")
                node = ("calld" if is_distinct else "call", v.lower(), args)
                if self.peek() == ("kw", "filter"):
                    # agg(x) FILTER (WHERE cond): pure rewrite to
                    # agg(CASE WHEN cond THEN x END) — aggregates skip
                    # NULLs, so semantics are identical
                    self.next()
                    self.expect("op", "(")
                    self.expect("kw", "where")
                    cond = self.parse_expr()
                    self.expect("op", ")")
                    fargs = node[2]
                    if not fargs or fargs[0] == ("star",):
                        fargs = [("lit", 1)]
                    node = (node[0], node[1],
                            [("case", [(cond, fargs[0])], None)]
                            + list(fargs[1:]))
                if self.peek() == ("kw", "over"):
                    # window function: fn(args) OVER ([PARTITION BY ...]
                    # [ORDER BY col [ASC|DESC], ...]) — default frame is
                    # SQL's RANGE UNBOUNDED PRECEDING..CURRENT ROW (peer
                    # rows share the cumulative value)
                    self.next()
                    self.expect("op", "(")
                    part, ocols, odesc = [], [], []
                    if self.accept("kw", "partition"):
                        self.expect("kw", "by")
                        while True:
                            # full expressions: a plain column keeps
                            # its name (string), anything else stays an
                            # AST node and is pre-projected as a
                            # synthetic partition column by the runner
                            e = self.parse_expr()
                            part.append(
                                e[1] if (isinstance(e, tuple)
                                         and e[0] == "col") else e)
                            if not self.accept("op", ","):
                                break
                    if self.accept("kw", "order"):
                        self.expect("kw", "by")
                        while True:
                            # full expressions (incl. aggregate calls
                            # for windows over GROUP BY results, e.g.
                            # RANK() OVER (ORDER BY COUNT(*) DESC))
                            ocols.append(self.parse_expr())
                            if self.accept("kw", "desc"):
                                odesc.append(True)
                            else:
                                self.accept("kw", "asc")
                                odesc.append(False)
                            if not self.accept("op", ","):
                                break
                    frame = None
                    if self.accept("kw", "rows"):
                        # ROWS BETWEEN {n|UNBOUNDED} PRECEDING AND
                        # {CURRENT ROW | m FOLLOWING} — physical-row
                        # frame (no peer sharing, unlike the RANGE
                        # default)
                        self.expect("kw", "between")
                        if self.accept("kw", "unbounded"):
                            k = None
                        else:
                            k = int(self.expect("num")[1])
                        self.expect("kw", "preceding")
                        self.expect("kw", "and")
                        if self.accept("kw", "current"):
                            self.expect("kw", "row")
                            k2 = 0
                        else:
                            k2 = int(self.expect("num")[1])
                            self.expect("kw", "following")
                        frame = ("rows", k, k2)
                    elif self.accept("kw", "range"):
                        # RANGE BETWEEN <n> PRECEDING AND CURRENT ROW —
                        # VALUE-based frame over one numeric ascending
                        # ORDER BY key (the time-window running
                        # aggregate); CURRENT ROW includes all peers
                        self.expect("kw", "between")
                        tk, tv = self.next()
                        if tk != "num":
                            raise ValueError(
                                "RANGE frame needs a numeric bound")
                        self.expect("kw", "preceding")
                        self.expect("kw", "and")
                        self.expect("kw", "current")
                        self.expect("kw", "row")
                        frame = ("range", float(tv), 0)
                    self.expect("op", ")")
                    node = ("win", v.lower(), args, tuple(part),
                            tuple(ocols), tuple(odesc), frame)
                return node
            if self.accept("op", "."):
                # alias-qualified column (t.k / d.k): single-table scope
                # after FROM resolution, so the bare column is the ref
                return ("col", self.expect("ident")[1])
            return ("col", v)
        raise ValueError(f"SQL parse error at {self.peek()}")

    def _accept_alias(self):
        """Optional [AS] alias after a table expression (sql.y as_opt).
        Aliases are cosmetic in single-table scope — qualified column
        refs resolve to the bare column."""
        if self.accept("kw", "as"):
            self.expect("ident")
        elif self.peek()[0] == "ident":
            self.next()

    def _parse_values_table(self):
        """tuple_list body of a (VALUES ...) literal table; rows must be
        literals (possibly signed).  Returns ("values", rows, colnames)."""
        self.expect("ident")  # VALUES
        rows = []
        while True:
            self.expect("op", "(")
            row = []
            while True:
                e = self.parse_expr()
                if e[0] == "neg" and e[1][0] == "lit":
                    e = ("lit", -e[1][1])
                if e[0] != "lit":
                    raise ValueError(
                        f"VALUES rows must be literals, got {e!r}")
                row.append(e[1])
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
            rows.append(row)
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        self.accept("kw", "as")
        self.expect("ident")  # alias (unused — single-table scope)
        ncols = len(rows[0])
        names = [f"col{i}" for i in range(ncols)]  # DuckDB default names
        if self.accept("op", "("):
            names = []
            while True:
                names.append(self.expect("ident")[1])
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        if any(len(r) != ncols for r in rows) or len(names) != ncols:
            raise ValueError("VALUES rows/column list have uneven arity")
        return ("values", rows, names)

    def parse_case(self):
        self.expect("kw", "case")
        operand = None
        if self.peek() != ("kw", "when"):
            # simple CASE: CASE expr WHEN v THEN .. — each WHEN value
            # compares against the operand (searched-CASE rewrite)
            operand = self.parse_expr()
        branches = []
        while self.accept("kw", "when"):
            c = self.parse_expr()
            if operand is not None:
                c = ("eq", operand, c)
            self.expect("kw", "then")
            branches.append((c, self.parse_expr()))
        default = None
        if self.accept("kw", "else"):
            default = self.parse_expr()
        self.expect("kw", "end")
        return ("case", branches, default)


def _never(e):
    """A predicate no row satisfies, as an ARRAY-producing node: e != e
    is FALSE for non-null e and NULL for null e — both filtered.  Only
    polarity-safe where NULL is an acceptable stand-in for FALSE; a
    strictly-boolean predicate (EXISTS, IN over an empty set) must use
    :func:`_always_false` so an enclosing NOT yields TRUE."""
    return ("ne", e, e)


def _always_false(e):
    """Strict FALSE for every row, NULL probes included (isnull/notnull
    never return NULL, and Kleene AND of TRUE/FALSE is FALSE)."""
    return ("and", ("isnull", e), ("notnull", e))


def _always_true(e):
    """Strict TRUE for every row, NULL probes included."""
    return ("or", ("isnull", e), ("notnull", e))


def _negate_in(e, in_node):
    """SQL three-valued NOT IN: if the value set contains a NULL the
    predicate is never TRUE (x <> NULL is NULL, so the AND-chain can
    only be FALSE or NULL); a NULL probe value is NULL too, so the
    plain inversion must keep nulls out."""
    if in_node[0] == "in_sub":
        # NULL handling deferred to plan time (the set isn't known yet)
        return ("not_in_sub", e, in_node[2])
    # Expr.isin carries full 3VL (NULL probe -> NULL; NULL member ->
    # non-matches NULL), so plain negation is exact in every polarity:
    # member -> FALSE, non-member-with-null-in-set -> NULL, NULL probe
    # -> NULL — and an enclosing NOT re-inverts correctly
    return ("not", in_node)


# -- compilation to the sqlish Expr layer -----------------------------------

def _str_series(v):
    """pandas object Series from an Arrow array / chunked array /
    scalar.  Scalars (literal arguments) become a one-row series; the
    caller returns element 0 as a pa.Scalar and the projection layer
    broadcasts it to the table length."""
    import pandas as _pd

    if isinstance(v, pa.Scalar):
        return _pd.Series([v.as_py()], dtype="object"), True
    return _pd.Series(v.to_pandas()).astype("object"), False


def _compile_expr(node) -> Expr:
    if not isinstance(node, tuple):
        raise ValueError(f"bad expr node {node!r}")
    op = node[0]
    if op == "lit":
        return lit(node[1])
    if op == "col":
        return col(node[1])
    if op in ("add", "sub", "mul", "div", "idiv", "mod", "eq", "ne",
              "lt", "le", "gt", "ge", "and", "or"):
        a, b = _compile_expr(node[1]), _compile_expr(node[2])
        return {
            "add": a.__add__, "sub": a.__sub__, "mul": a.__mul__,
            "div": a.__truediv__, "idiv": a.idiv, "mod": a.__mod__,
            "eq": a.__eq__,
            "ne": a.__ne__, "lt": a.__lt__, "le": a.__le__,
            "gt": a.__gt__, "ge": a.__ge__, "and": a.__and__,
            "or": a.__or__,
        }[op](b)
    if op == "cast":
        inner = _compile_expr(node[1])
        typ = node[2]
        if typ in ("bigint", "integer", "int", "hugeint"):
            return inner.make_integer()
        if typ in ("double", "float", "real"):
            return inner.make_float()
        if typ in ("varchar", "text", "string"):
            return inner.make_string()
        raise ValueError(f"unsupported CAST type {typ}")
    if op in ("bitand", "bitor", "bitxor", "shiftl", "shiftr"):
        a, b = _compile_expr(node[1]), _compile_expr(node[2])
        return {"bitand": a.bitand, "bitor": a.bitor, "bitxor": a.bitxor,
                "shiftl": a.shiftleft, "shiftr": a.shiftright}[op](b)
    if op == "bitnot":
        return _compile_expr(node[1]).bitnot()
    if op == "not":
        return ~_compile_expr(node[1])
    if op == "neg":
        return lit(0) - _compile_expr(node[1])
    if op == "like":
        return _compile_expr(node[1]).like(node[2])
    if op == "between":
        return _compile_expr(node[1]).between(
            _compile_expr(node[2]), _compile_expr(node[3]))
    if op == "in":
        # Expr.isin carries full three-valued semantics (NULL probe ->
        # NULL; NULL member -> non-matches become NULL), so the raw
        # member list passes through
        return _compile_expr(node[1]).isin(list(node[2]))
    if op == "in_set":
        # broadcast semi-join (see _semi_join): the deduped, null-free
        # value array arrives once by ray.put; node[3] is its null flag
        xe = _compile_expr(node[1])

        def _in_set(t, _xe=xe, _ref=node[2], _had_null=node[3]):
            import ray

            return in_3vl(_xe(t), ray.get(_ref), _had_null)

        return Expr(_in_set, "in")
    if op == "isnull":
        return _compile_expr(node[1]).is_null()
    if op == "notnull":
        return ~_compile_expr(node[1]).is_null()
    if op == "concat2":
        return _compile_expr(node[1]).concat(_compile_expr(node[2]))
    if op == "case":
        branches = [(_compile_expr(c), _compile_expr(v))
                    for c, v in node[1]]
        default = _compile_expr(node[2]) if node[2] is not None else None
        return case_when(branches, default)
    if op == "interval":
        # fixed-width interval literal: an Arrow duration scalar, so
        # timestamp ± INTERVAL rides the ordinary add/sub kernels
        return Expr(lambda t, _us=node[1]: pa.scalar(
            _us, pa.duration("us")), "interval")
    if op == "cum_probe":
        # inequality-correlated scalar aggregate: one searchsorted into
        # the broadcast cumulative arrays picks each row's window (see
        # _build_cum_probe)
        import pyarrow.compute as _pc

        xe = _compile_expr(node[1])
        p = node[2]

        def _cum_fn(t, _xe=xe, _p=p):
            xa = _pc.cast(_xe(t), pa.float64())
            xf = xa.to_numpy(zero_copy_only=False)
            isnan = np.isnan(xf)
            j = np.searchsorted(_p["keys"], np.where(isnan, 0.0, xf),
                                side=_p["side"])
            kind = _p["kind"]
            if kind == "count":
                out = _p["c"][j].astype(np.int64)
                # a NULL outer probe selects no rows: COUNT is 0
                out[isnan] = 0
                return pa.array(out, pa.int64())
            if kind in ("sum", "avg"):
                cs, cc = _p["s"][j], _p["c"][j]
                vals = cs / np.where(cc == 0, 1.0, cc) \
                    if kind == "avg" else cs
                mask = isnan | (cc == 0)
                return pa.array(vals, pa.float64(), mask=mask)
            vm = _p["v"][j]
            mask = isnan | np.isnan(vm)
            return pa.array(vm, pa.float64(), mask=mask)

        return Expr(_cum_fn, "cum_probe")
    if op == "call":
        name, args = node[1], [_compile_expr(a) for a in node[2]]

        def _lit_arg(i):
            # these functions take LITERAL trailing args in this engine;
            # a column/expression there would silently compile the AST
            # slot's raw value — reject it loudly instead
            a = node[2][i]
            # fold unary minus over a numeric literal (the parser emits
            # ('neg', ('lit', n)) for "-n")
            if (isinstance(a, tuple) and len(a) == 2 and a[0] == "neg"
                    and isinstance(a[1], tuple) and a[1][0] == "lit"):
                a = ("lit", -a[1][1])
            if not (isinstance(a, tuple) and a and a[0] == "lit"):
                raise ValueError(
                    f"{name}() argument {i} must be a literal, got {a!r}")
            return a[1]

        if name == "coalesce":
            return args[0].coalesce(*args[1:])
        if name == "nullif":
            return args[0].nullif(args[1])
        if name == "replace":
            return args[0].replace(_lit_arg(1), _lit_arg(2))
        if name in ("char_length", "length"):
            return args[0].char_length()
        if name == "substr":
            return args[0].substr(int(_lit_arg(1)), int(_lit_arg(2)))
        if name == "concat":
            return args[0].concat(*args[1:])
        if name in ("greatest", "least"):
            # DuckDB semantics: NULL arguments are ignored, all-NULL
            # rows yield NULL — pyarrow's skip_nulls default
            import pyarrow.compute as _pc

            kern = (_pc.max_element_wise if name == "greatest"
                    else _pc.min_element_wise)
            return Expr(
                lambda t, _k=kern, _a=list(args): _k(*[a(t) for a in _a]),
                name)
        if name == "make_integer":
            return args[0].make_integer()
        if name == "make_float":
            return args[0].make_float()
        if name == "numchar":
            return args[0].numchar(str(_lit_arg(1)))
        if name == "maxwidth":
            sep = str(_lit_arg(1)) if len(args) > 1 else "\n"
            return args[0].maxwidth(sep)
        if name in ("upper", "lower", "trim", "ltrim", "rtrim", "abs",
                    "floor", "ceil", "ceiling", "sign", "sqrt", "ln",
                    "reverse"):
            import pyarrow.compute as _pc

            kern = {"upper": _pc.utf8_upper, "lower": _pc.utf8_lower,
                    "trim": _pc.utf8_trim_whitespace,
                    "ltrim": _pc.utf8_ltrim_whitespace,
                    "rtrim": _pc.utf8_rtrim_whitespace,
                    "abs": _pc.abs, "floor": _pc.floor, "ceil": _pc.ceil,
                    "ceiling": _pc.ceil, "sign": _pc.sign,
                    "sqrt": _pc.sqrt, "ln": _pc.ln,
                    "reverse": _pc.utf8_reverse}[name]
            a0 = args[0]
            return Expr(lambda t, _k=kern, _a=a0: _k(_a(t)), name)
        if name == "round":
            import pyarrow.compute as _pc

            nd = int(_lit_arg(1)) if len(args) > 1 else 0
            a0 = args[0]
            # SQL ROUND is half-away-from-zero (DuckDB), not banker's
            # (pyarrow spells it half_towards_infinity)
            return Expr(lambda t, _a=a0, _n=nd: _pc.round(
                _a(t), ndigits=_n, round_mode="half_towards_infinity"),
                "round")
        if name in ("year", "month", "day", "hour", "minute", "second"):
            import pyarrow.compute as _pc

            kern = getattr(_pc, name)
            a0 = args[0]
            return Expr(lambda t, _k=kern, _a=a0: _k(_a(t)), name)
        if name == "extract":
            import pyarrow.compute as _pc

            field = str(_lit_arg(0)).lower()
            a1 = args[1]
            if field in ("year", "month", "day", "hour", "minute",
                         "second"):
                kern = getattr(_pc, field)
                return Expr(lambda t, _k=kern, _a=a1: _k(_a(t)),
                            f"extract_{field}")
            if field == "dow":
                # SQL dow counts Sunday=0; Arrow counts Monday=0
                dowe = Expr(lambda t, _a=a1: _pc.day_of_week(_a(t)),
                            "dow")
                return (dowe + lit(1)) % lit(7)
            if field == "epoch":
                # DuckDB: DOUBLE seconds since the Unix epoch
                return Expr(
                    lambda t, _a=a1: _pc.divide(
                        _pc.cast(_pc.cast(_a(t), pa.int64()),
                                 pa.float64()),
                        pa.scalar(1e6)),
                    "extract_epoch")
            raise ValueError(f"unsupported EXTRACT field {field}")
        if name in ("starts_with", "ends_with", "contains"):
            import pyarrow.compute as _pc

            pat = str(_lit_arg(1))
            kern = {"starts_with": _pc.starts_with,
                    "ends_with": _pc.ends_with,
                    "contains": _pc.match_substring}[name]
            a0 = args[0]
            return Expr(lambda t, _k=kern, _a=a0, _p=pat:
                        _k(_a(t), pattern=_p), name)
        if name == "strpos":
            import pyarrow.compute as _pc

            pat = str(_lit_arg(1))
            a0 = args[0]
            # SQL strpos is 1-based with 0 for no match; Arrow
            # find_substring is 0-based with -1 — add one
            return Expr(lambda t, _a=a0, _p=pat: _pc.cast(_pc.add(
                _pc.find_substring(_a(t), pattern=_p), 1), pa.int64()),
                "strpos")
        if name in ("left", "right"):
            import pyarrow.compute as _pc

            n2 = int(_lit_arg(1))
            a0 = args[0]
            if name == "left":
                # n >= 0: first n chars; n < 0: all but the last |n|
                # (DuckDB semantics) — both are the Python slice s[0:n]
                return Expr(lambda t, _a=a0, _n=n2:
                            _pc.utf8_slice_codeunits(_a(t), 0, _n),
                            "left")
            if n2 == 0:
                return Expr(lambda t, _a=a0:
                            _pc.utf8_slice_codeunits(_a(t), 0, 0),
                            "right")
            # n > 0: last n chars = s[-n:] (clamped so n > len gives the
            # whole string); n < 0: all but the first |n| = s[|n|:]
            # (DuckDB semantics) — both are the Python slice s[-n:]
            return Expr(lambda t, _a=a0, _n=n2:
                        _pc.utf8_slice_codeunits(_a(t), -_n), "right")
        if name == "repeat":
            import pyarrow.compute as _pc

            n2 = int(_lit_arg(1))
            a0 = args[0]
            return Expr(lambda t, _a=a0, _n=n2:
                        _pc.binary_repeat(_a(t), _n), "repeat")
        if name == "date_trunc":
            import pyarrow.compute as _pc

            unit = str(_lit_arg(0)).lower()
            a1 = args[1]
            if unit not in ("second", "minute", "hour", "day", "week",
                            "month", "year"):
                raise ValueError(f"unsupported date_trunc unit {unit}")
            return Expr(lambda t, _a=a1, _u=unit: _pc.floor_temporal(
                _a(t), unit=_u), "date_trunc")
        if name == "md5":
            a0 = args[0]

            def _md5_kern(t, _a=a0):
                import hashlib as _h

                import pandas as _pd

                s, _sc = _str_series(_a(t))
                codes, uniq = _pd.factorize(s)
                hx = np.asarray(
                    [_h.md5(str(u).encode()).hexdigest() for u in uniq]
                    or [None], dtype=object)[codes]
                hx = np.asarray(hx, dtype=object)
                hx[codes == -1] = None       # md5(NULL) IS NULL
                out = pa.array(hx, pa.string())
                return out[0] if _sc else out

            return Expr(_md5_kern, "md5")
        if name == "regexp_extract":
            import re as _re

            pat = str(_lit_arg(1))
            grp = int(_lit_arg(2)) if len(args) > 2 else 0
            rx = _re.compile(f"({pat})" if grp == 0 else pat)
            gi = 1 if grp == 0 else grp
            a0 = args[0]

            def _rext(t, _a=a0, _rx=rx, _g=gi):
                import pandas as _pd

                s, _sc = _str_series(_a(t))
                out = s.str.extract(_rx, expand=True)
                col = out[_g - 1]
                # DuckDB returns '' for no match but NULL for NULL input
                col = col.where(~(col.isna() & s.notna()), "")
                col = col.where(s.notna(), None)
                res = pa.array(col.to_numpy(dtype=object), pa.string())
                return res[0] if _sc else res

            return Expr(_rext, "regexp_extract")
        if name == "regexp_replace":
            import re as _re

            pat = _re.compile(str(_lit_arg(1)))
            repl = str(_lit_arg(2))
            # DuckDB replaces the FIRST match unless the 'g' option is
            # passed as a fourth argument
            n_sub = -1 if (len(args) > 3 and "g" in str(_lit_arg(3))) else 1
            a0 = args[0]

            def _rrep(t, _a=a0, _p=pat, _r=repl, _n=n_sub):
                import pandas as _pd

                s, _sc = _str_series(_a(t))
                out = s.str.replace(_p, _r, n=_n, regex=True)
                res = pa.array(out.to_numpy(dtype=object), pa.string())
                return res[0] if _sc else res

            return Expr(_rrep, "regexp_replace")
        if name == "split_part":
            sep = str(_lit_arg(1))
            idx = int(_lit_arg(2))
            if idx < 1:
                raise ValueError("split_part index is 1-based")
            a0 = args[0]

            def _spart(t, _a=a0, _s=sep, _i=idx):
                import pandas as _pd

                s, _sc = _str_series(_a(t))
                col = s.str.split(_s, regex=False).str[_i - 1]
                # DuckDB's split_part returns '' out-of-range AND for
                # NULL input (no null propagation, unlike its regexps)
                col = col.fillna("")
                res = pa.array(col.to_numpy(dtype=object), pa.string())
                return res[0] if _sc else res

            return Expr(_spart, "split_part")
        if name in ("lpad", "rpad"):
            width = int(_lit_arg(1))
            fill = str(_lit_arg(2))
            a0 = args[0]
            left = name == "lpad"

            def _pad(t, _a=a0, _w=width, _f=fill, _l=left):
                import pandas as _pd

                s, _sc = _str_series(_a(t))
                # empty fill: DuckDB raises "Insufficient padding" only
                # on rows that NEED padding; we stay total and return
                # the (truncated) input — documented divergence
                if _f:
                    # DuckDB pads CYCLICALLY from a multi-char fill;
                    # the needed fragment is a prefix of one constant
                    # cyclic string, looked up by pad length (<= _w+1
                    # classes, codepoint-safe Python slicing)
                    cyc = (_f * _w)[:_w]
                    lut = {j: cyc[:j] for j in range(_w + 1)}
                    k = (_w - s.str.len()).clip(lower=0)
                    frag = k.map(lut)
                    out = (frag + s) if _l else (s + frag)
                else:
                    out = s
                # SQL lpad/rpad TRUNCATE to the target width (keep the
                # leftmost chars)
                out = out.str.slice(0, _w)
                out = out.where(out.notna(), None)
                res = pa.array(out.to_numpy(dtype=object), pa.string())
                return res[0] if _sc else res

            return Expr(_pad, name)
        if name in ("string_split", "str_split", "string_to_array"):
            sep = str(_lit_arg(1))
            a0 = args[0]

            def _ssplit(t, _a=a0, _s=sep):
                import pyarrow.compute as _pc

                v = _a(t)
                if isinstance(v, pa.ChunkedArray):
                    v = v.combine_chunks()
                return _pc.split_pattern(v, _s)

            return Expr(_ssplit, "string_split")
        raise ValueError(f"unknown SQL function {name}")
    raise ValueError(f"unknown SQL op {op}")


def _expr_name(node, idx) -> str:
    if node[0] == "col":
        return node[1]
    return f"expr{idx}"


_AGG_FUNCS = {"sum", "count", "min", "max", "avg", "stddev",
              "stddev_samp", "stddev_pop", "variance", "var_samp",
              "var_pop", "median", "quantile_cont", "quantile_disc",
              "string_agg", "bool_and", "bool_or"}
# pandas named-agg 'how' per SQL aggregate.  The non-associative ones
# (stddev/var/median) are exact: grouped_agg detects they are not
# map-side combinable and routes the full rows through the exchange,
# computing each group once in its bucket.
_AGG_HOW = {"sum": "sum", "count": "count", "min": "min", "max": "max",
            "avg": "mean",
            "stddev": "std", "stddev_samp": "std",
            "stddev_pop": lambda s: s.std(ddof=0),
            "variance": "var", "var_samp": "var",
            "var_pop": lambda s: s.var(ddof=0),
            "median": "median",
            # bool_and/bool_or over a boolean column are min/max —
            # associative, so the exchange map-side combines them
            "bool_and": "min", "bool_or": "max"}


def _is_unnest(node) -> bool:
    return (isinstance(node, tuple) and len(node) >= 2
            and node[0] == "call" and node[1] == "unnest")


def _has_unnest(node) -> bool:
    if _is_unnest(node):
        return True
    if isinstance(node, (tuple, list)):
        return any(_has_unnest(s) for s in node
                   if isinstance(s, (tuple, list)))
    return False


def _run_unnest_select(ds, sel) -> "ray.data.Dataset":  # noqa: F821
    """SELECT a, b, UNNEST(list_expr) AS x — explode: evaluate the list
    expression per batch, flatten it, and repeat every scalar item by
    its row's list length.  Rows whose list is NULL or empty drop
    (DuckDB semantics).  Exactly one top-level UNNEST item per SELECT
    list; UNNEST nested inside a larger expression is rejected.  The
    explode is a single streaming map_batches stage (pc.list_flatten +
    one take) — no shuffle, no per-row Python."""
    items = [(e, name or _expr_name(e, idx))
             for idx, (e, name) in enumerate(sel["items"])]
    un = [i for i, (e, _) in enumerate(items) if _is_unnest(e)]
    nested = [e for i, (e, _) in enumerate(items)
              if i not in un and _has_unnest(e)]
    if len(un) != 1 or nested:
        raise ValueError(
            "exactly one top-level UNNEST(expr) item per SELECT list "
            "is supported")
    ui = un[0]
    if len(items[ui][0][2]) != 1:
        raise ValueError("UNNEST takes exactly one argument")
    list_e = _compile_expr(items[ui][0][2][0])
    others = [(n, _compile_expr(e))
              for i, (e, n) in enumerate(items) if i != ui]
    where = _compile_expr(sel["where"]) if sel["where"] is not None else None
    out_names = [n for _, n in items]
    un_name = items[ui][1]

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        if where is not None:
            m = where(t)
            if isinstance(m, pa.Scalar):
                m = pa.array([bool(m.as_py())] * t.num_rows)
            elif isinstance(m, (bool, np.bool_)):
                m = pa.array([bool(m)] * t.num_rows)
            t = t.filter(m)
        lv = list_e(t)
        if isinstance(lv, pa.ChunkedArray):
            lv = lv.combine_chunks()
        lens = _pc.list_value_length(lv).fill_null(0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = _pc.list_flatten(lv)  # NULL/empty lists contribute 0 rows
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        cols = {}
        for n, e in others:
            v = e(t)
            if isinstance(v, pa.Scalar):
                v = pa.array([v.as_py()] * t.num_rows, type=v.type)
            cols[n] = _pc.take(v, idx)
        cols[un_name] = flat
        return pa.table({n: cols[n] for n in out_names})

    return ds.map_batches(fn, batch_format="pyarrow")


def _has_agg(node) -> bool:
    if isinstance(node, tuple):
        if not node:
            return False
        if node[0] in ("call", "calld") and node[1] in _AGG_FUNCS:
            return True
        return any(_has_agg(s) for s in node if isinstance(s, (tuple, list)))
    if isinstance(node, list):
        return any(_has_agg(s) for s in node if isinstance(s, (tuple, list)))
    return False


def _extract_aggs(node, aggs: list):
    """Replace every aggregate call in an item expression with a
    synthetic column ref, collecting (key, fname, args); the rewritten
    expression is then a plain post-aggregation projection.  Identical
    aggregate calls (e.g. SUM(v) in both SELECT and HAVING) share one
    synthetic column, so the spec computes each distinct aggregate
    once."""
    if isinstance(node, tuple):
        if not node:
            return node
        if node[0] in ("call", "calld") and node[1] in _AGG_FUNCS:
            fn = node[1] + ("!d" if node[0] == "calld" else "")
            for key, fname, args in aggs:
                if fname == fn and args == node[2]:
                    return ("col", key)
            key = f"__agg{len(aggs)}"
            aggs.append((key, fn, node[2]))
            return ("col", key)
        return tuple(
            _extract_aggs(s, aggs) if isinstance(s, (tuple, list)) else s
            for s in node
        )
    if isinstance(node, list):
        return [
            _extract_aggs(s, aggs) if isinstance(s, (tuple, list)) else s
            for s in node
        ]
    return node


def _run_rollup_select(ds, sel) -> "ray.data.Dataset":  # noqa: F821
    """GROUP BY ROLLUP (a, b, ..): one grouped exchange per prefix
    level (a,b) -> (a) -> (), rolled-up key columns substituted with
    NULL in that level's projection, levels unioned (each sub-level
    cast to the full level's schema so null-typed columns promote)."""
    group = sel["group"]
    if sel.get("rollup") == "sets":
        # GROUPING SETS: the user's explicit levels (index lists over
        # the distinct key expressions, first-appearance order)
        levels = sel["gsets"]
    elif sel.get("rollup") == "cube":
        # CUBE: every subset of the keys
        if len(group) > 4:
            raise ValueError("CUBE supports at most 4 keys (2^n levels)")
        from itertools import combinations

        levels = [list(c)
                  for r in range(len(group), -1, -1)
                  for c in combinations(range(len(group)), r)]
    else:
        levels = [list(range(i)) for i in range(len(group), -1, -1)]
    # resolve output names from the ORIGINAL items once — a rolled-up
    # level substitutes NULL for group keys, which would otherwise
    # change the auto-derived column name
    named = [(e, name or _expr_name(e, idx))
             for idx, (e, name) in enumerate(sel["items"])]
    outs = []
    for idx_set in levels:
        keep = set(idx_set)
        items_i = []
        for e, name in named:
            ne = _subst_grouping_calls(e, group, keep)
            for j, gnode in enumerate(group):
                if j not in keep:
                    # NULL-substitute rolled-up keys ONLY outside
                    # aggregate arguments: SUM(k)/COUNT(k) on a
                    # subtotal row still aggregate the real values
                    ne = _subst_nonagg(ne, gnode, ("lit", None))
            items_i.append((ne, name))
        sel_i = dict(sel, group=[group[j] for j in idx_set],
                     items=items_i, rollup=False)
        if sel.get("having") is not None:
            hv = _subst_grouping_calls(sel["having"], group, keep)
            for j, gnode in enumerate(group):
                if j not in keep:
                    hv = _subst_nonagg(hv, gnode, ("lit", None))
            sel_i["having"] = hv
        outs.append(_run_grouped_select(ds, sel_i))
    # a keyed level over an EMPTY input is a void (schema-less zero-row)
    # relation — drop it from the union; the () level still emits its
    # one grand-total row through the global-aggregate path
    live = [o for o in outs if _schema_names_or_none(o) is not None]
    if not live:
        return outs[0]
    outs = live
    # target schema: per column, the first non-null type across levels
    # (ROLLUP/CUBE always emit the all-keys level first, but GROUPING
    # SETS levels may each null out a different key)
    schemas = [o.schema().base_schema for o in outs]
    fields = []
    for i, f in enumerate(schemas[0]):
        typ = f.type
        if pa.types.is_null(typ):
            for s2 in schemas[1:]:
                if not pa.types.is_null(s2.field(i).type):
                    typ = s2.field(i).type
                    break
        fields.append(pa.field(f.name, typ))
    target = pa.schema(fields)

    def cast_to(t: pa.Table, _s=target) -> pa.Table:
        if t.num_rows == 0 and not all(
                n in t.column_names for n in _s.names):
            # schema-less zero-row block from a union
            return _s.empty_table()
        return t.select(_s.names).cast(_s)

    out = outs[0].map_batches(cast_to, batch_format="pyarrow")
    for o in outs[1:]:
        out = out.union(o.map_batches(cast_to, batch_format="pyarrow"))
    return out


def _subst_grouping_calls(node, group, keep):
    """Replace GROUPING(k1 [, k2 ..]) calls with the level's literal
    bitmask (leftmost argument = most significant bit, 1 when the key
    is rolled up at this level — standard SQL / DuckDB semantics).
    Runs BEFORE the NULL substitution so the argument still matches
    its group-key expression structurally."""
    if isinstance(node, tuple):
        if node and node[0] == "call" and node[1] == "grouping":
            mask = 0
            for a in node[2]:
                if a not in group:
                    raise ValueError(
                        "GROUPING() arguments must be GROUP BY keys")
                mask = (mask << 1) | (0 if group.index(a) in keep else 1)
            return ("lit", mask)
        return tuple(
            _subst_grouping_calls(x, group, keep)
            if isinstance(x, (tuple, list)) else x for x in node)
    if isinstance(node, list):
        return [
            _subst_grouping_calls(x, group, keep)
            if isinstance(x, (tuple, list)) else x for x in node]
    return node


def _subst_nonagg(node, target, repl):
    """Like :func:`_subst` but does NOT descend into aggregate call
    arguments — those evaluate per-row pre-aggregation, so a ROLLUP
    level's NULL substitution must leave them intact."""
    if node == target:
        return repl
    if isinstance(node, tuple):
        if node and node[0] in ("call", "calld") and node[1] in _AGG_FUNCS:
            return node
        return tuple(
            _subst_nonagg(x, target, repl)
            if isinstance(x, (tuple, list)) else x for x in node)
    if isinstance(node, list):
        return [
            _subst_nonagg(x, target, repl)
            if isinstance(x, (tuple, list)) else x for x in node]
    return node


def _subst(node, target, repl):
    """Structurally replace every occurrence of AST ``target`` in
    ``node`` with ``repl``."""
    if node == target:
        return repl
    if isinstance(node, tuple):
        return tuple(
            _subst(x, target, repl) if isinstance(x, (tuple, list)) else x
            for x in node)
    if isinstance(node, list):
        return [
            _subst(x, target, repl) if isinstance(x, (tuple, list)) else x
            for x in node]
    return node


def _run_grouped_select(ds, sel) -> "ray.data.Dataset":  # noqa: F821
    """GROUP BY execution: WHERE filter -> pre-project (group cols +
    aggregate inputs) -> one bucketed grouped_agg exchange -> post-project
    the item expressions over the aggregated table.  (Exceeds the
    reference grammar, which has no GROUP BY — sqlselect/sql.go — but a
    SQL front-end without aggregation is not usable standalone.)"""
    from ..stages.shuffle import grouped_agg

    if sel["items"] is None:
        raise ValueError("SELECT * is not valid with GROUP BY")
    # normalize GROUP BY entries: plain columns stay; a SELECT alias
    # resolves to its expression (when no real column shadows it); any
    # other expression becomes a synthetic pre-projected group column,
    # substituted back into the post-agg projection wherever the same
    # expression appears
    raw_group = sel["group"] or []
    alias_map = {name: e for e, name in sel["items"] if name}
    schema_names = set(_hint_names(ds, sel)) if raw_group else set()
    group_cols: list = []
    gexprs: list = []  # (ast_node, synthetic_name)
    for i, gnode in enumerate(raw_group):
        if (isinstance(gnode, tuple) and gnode[0] == "lit"
                and isinstance(gnode[1], int)
                and not isinstance(gnode[1], bool)):
            # SQL ordinal: GROUP BY 1 names the first SELECT item
            pos = gnode[1]
            if not 1 <= pos <= len(sel["items"]):
                raise ValueError(f"GROUP BY ordinal {pos} out of range")
            gnode = sel["items"][pos - 1][0]
        if (isinstance(gnode, tuple) and gnode[0] == "col"
                and gnode[1] in alias_map
                and gnode[1] not in schema_names
                and alias_map[gnode[1]] != gnode):
            gnode = alias_map[gnode[1]]
        if isinstance(gnode, tuple) and gnode[0] == "col":
            group_cols.append(gnode[1])
        else:
            gname = f"__gx{i}"
            group_cols.append(gname)
            gexprs.append((gnode, gname))
    # global aggregate (no GROUP BY): group over a synthetic constant
    # (assumes non-empty input — SQL's 1-row-on-empty convention is not
    # reproduced)
    global_agg = not group_cols
    if global_agg:
        group_cols = ["__g"]
    aggs: list = []
    post_items = []
    for idx, (e, name) in enumerate(sel["items"]):
        ne = _extract_aggs(e, aggs)
        # substitution happens AFTER aggregate extraction, so group
        # expressions inside aggregate ARGUMENTS stay intact (those
        # evaluate per-row pre-aggregation)
        for gnode, gname in gexprs:
            ne = _subst(ne, gnode, ("col", gname))
        post_items.append((ne, name or _expr_name(e, idx)))
    # HAVING aggregates join the same spec so ONE aggregation pass
    # computes everything; the rewritten predicate filters the
    # aggregated table before the final projection
    having_raw = sel.get("having")
    if having_raw is not None:
        # HAVING may reference a SELECT alias (DuckDB): resolve it to
        # the item's expression BEFORE aggregate extraction, unless a
        # real input column shadows the alias
        in_schema = set(_hint_names(ds, sel))
        for aname, aexpr in alias_map.items():
            if aname not in in_schema and aexpr != ("col", aname):
                having_raw = _subst(having_raw, ("col", aname), aexpr)
    having_node = (
        _extract_aggs(having_raw, aggs)
        if having_raw is not None else None
    )
    for gnode, gname in gexprs:
        if having_node is not None:
            having_node = _subst(having_node, gnode, ("col", gname))

    q = Query(ds)
    if sel["where"] is not None:
        q = q.where(_compile_expr(sel["where"]))
    pre_cols = ({"__g": lit(0)} if global_agg
                else {c: col(c) for c in group_cols
                      if c not in {g for _n, g in gexprs}})
    for gnode, gname in gexprs:
        pre_cols[gname] = _compile_expr(gnode)
    spec = {}
    for key, fname, args in aggs:
        if fname == "count" and (not args or args[0] == ("star",)):
            spec[key] = (group_cols[0], "size")
            continue
        argcol = f"{key}_in"
        pre_cols[argcol] = _compile_expr(args[0])
        if fname == "string_agg":
            # string_agg(x, sep ORDER BY x [ASC|DESC]): exact ordered
            # group-concat through the full-row exchange.  The parser
            # enforces the ORDER BY (DuckDB's unordered string_agg is
            # nondeterministic — silent order dependence is worse than
            # an error) and appends the direction as a literal flag.
            if (len(args) != 3 or args[1][0] != "lit"
                    or not isinstance(args[1][1], str)):
                raise ValueError(
                    "string_agg needs a literal separator and an "
                    "ORDER BY over the aggregated expression")
            sep, asc = args[1][1], args[2][1] == "asc"
            spec[key] = (argcol,
                         lambda s, _sep=sep, _a=asc: _sep.join(
                             s.dropna().astype(str)
                             .sort_values(ascending=_a, kind="stable")))
            continue
        if fname in ("quantile_cont", "quantile_disc"):
            # DuckDB two-arg form: quantile_cont(x, q) with a literal
            # fraction.  Exact (non-combinable -> the full rows travel
            # to the group's bucket, like MEDIAN): cont = linear
            # interpolation at (n-1)q, disc = the value at
            # floor((n-1)q) — both pandas interpolation modes
            if (len(args) != 2 or not isinstance(args[1], tuple)
                    or args[1][0] != "lit"
                    or not isinstance(args[1][1], (int, float))):
                raise ValueError(
                    f"{fname} needs a literal fraction second argument")
            frac = float(args[1][1])
            interp = "linear" if fname == "quantile_cont" else "lower"
            spec[key] = (argcol,
                         lambda s, q=frac, i=interp: s.quantile(
                             q, interpolation=i))
            continue
        if fname.endswith("!d"):
            # fn(DISTINCT x): exact — each group is complete within its
            # bucket, so a per-group unique pass is correct; grouped_agg
            # skips map-side combine for these (the distinct set itself
            # must travel), so the exchange is O(rows), not O(keys)
            base = fname[:-2]
            spec[key] = (argcol, {
                "count": "nunique",
                "sum": lambda s: s.drop_duplicates().sum(min_count=1),
                "avg": lambda s: s.drop_duplicates().mean(),
                "min": "min", "max": "max",
            }[base])
        else:
            spec[key] = (argcol, _AGG_HOW[fname])
    if not spec:
        # GROUP BY with no aggregates anywhere (SELECT g FROM t GROUP
        # BY g) is a distinct over the group keys; pandas .agg(**{})
        # raises.  A hidden size column keeps the one-exchange shape —
        # the final projection never selects it.
        spec["__cnt"] = (group_cols[0], "size")
    # SQL SUM over zero non-NULL values is NULL; pandas sum says 0.
    # Ride a hidden count of the same argument through the (still
    # map-side-combinable) exchange and CASE the sum to NULL after.
    sum_fix = [(key, f"{key}_nn") for key, fname, _a in aggs
               if fname == "sum"]
    for key, ck in sum_fix:
        spec[ck] = (spec[key][0], "count")
    if sum_fix:
        def _null_empty_sums(node):
            for key, ck in sum_fix:
                node = _subst(node, ("col", key), ("case", [
                    (("gt", ("col", ck), ("lit", 0)), ("col", key))],
                    ("lit", None)))
            return node
        post_items = [(_null_empty_sums(ne), name)
                      for ne, name in post_items]
        if having_node is not None:
            having_node = _null_empty_sums(having_node)
    agg_ds = grouped_agg(q.select(**pre_cols).run(), group_cols, spec)
    if global_agg:
        # SQL returns exactly ONE row for a global aggregate even on
        # empty input (COUNT = 0, other aggregates NULL); the synthetic
        # grouping yields zero groups there, so synthesize the row.
        # The aggregated table is O(1), so materializing is free.
        import ray as _ray

        agg_ds = agg_ds.materialize()
        if agg_ds.count() == 0:
            row = {"__g": pa.array([0], pa.int64())}
            for key, fname, _args in aggs:
                base = fname[:-2] if fname.endswith("!d") else fname
                row[key] = (pa.array([0], pa.int64()) if base == "count"
                            else pa.array([None], pa.float64()))
            for _key, ck in sum_fix:
                row[ck] = pa.array([0], pa.int64())
            agg_ds = _ray.data.from_arrow(pa.table(row))
    q2 = Query(agg_ds)
    if having_node is not None:
        q2 = q2.where(_compile_expr(having_node))
    proj = {name: _compile_expr(ne) for ne, name in post_items}
    return q2.select(**proj).run()


_WIN_FUNCS = {"row_number", "rank", "dense_rank", "sum", "count", "min",
              "max", "avg", "lag", "lead", "first_value", "last_value",
              "nth_value", "ntile", "percent_rank", "cume_dist"}
# aggregates that accept a ROWS frame (moving aggregates)
_FRAMEABLE = {"sum", "count", "min", "max", "avg"}


def _has_win(node) -> bool:
    if isinstance(node, tuple):
        if not node:
            return False
        if node[0] == "win":
            return True
        return any(_has_win(s) for s in node if isinstance(s, (tuple, list)))
    if isinstance(node, list):
        return any(_has_win(s) for s in node if isinstance(s, (tuple, list)))
    return False


def _extract_wins(node, wins: list):
    """Replace each window call with a synthetic column ref, collecting
    (key, fname, args, part, ocols, odesc); identical window specs share
    one synthetic column (computed once)."""
    if isinstance(node, tuple):
        if not node:
            return node
        if node[0] == "win":
            _w, fname, args, part, ocols, odesc, frame = node
            if fname not in _WIN_FUNCS:
                raise ValueError(f"unsupported window function {fname}()")
            if frame is not None and fname not in _FRAMEABLE:
                raise ValueError(f"{fname}() does not accept a ROWS frame")
            for key, f2, a2, p2, o2, d2, fr2 in wins:
                if (f2, a2, p2, o2, d2, fr2) == (
                        fname, args, part, ocols, odesc, frame):
                    return ("col", key)
            key = f"__win{len(wins)}"
            wins.append((key, fname, args, part, ocols, odesc, frame))
            return ("col", key)
        return tuple(
            _extract_wins(s, wins) if isinstance(s, (tuple, list)) else s
            for s in node
        )
    if isinstance(node, list):
        return [
            _extract_wins(s, wins) if isinstance(s, (tuple, list)) else s
            for s in node
        ]
    return node


def _window_bucket_fn(part: list, specs: list):
    """Per-bucket vectorized window computation.  The bucket holds every
    row of every partition key hashed there (bucketed_apply contract), so
    per-partition windows are exact.  All kernels are pandas groupby
    primitives (cumsum/cumcount/shift/transform) — no Python row loop.

    Cumulative aggregates reproduce SQL's default frame (RANGE UNBOUNDED
    PRECEDING .. CURRENT ROW): peer rows (ties on the ORDER BY columns)
    share the value of their peer group's LAST row."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        if df.empty:
            for key, fname, argcol, _off, ocols, _odesc, _frame in specs:
                if fname in ("row_number", "rank", "dense_rank", "count",
                             "ntile"):
                    df[key] = pd.Series(np.array([], dtype=np.int64))
                elif fname in ("sum", "avg", "percent_rank", "cume_dist"):
                    df[key] = pd.Series(np.array([], dtype=np.float64))
                elif fname in ("lag", "lead"):
                    src = df[argcol]
                    df[key] = (src.astype(np.float64)
                               if src.dtype.kind in "iuf" else src)
                else:  # min / max / first_value keep the input dtype
                    df[key] = df[argcol]
            return df
        sort_cache: dict = {}
        for key, fname, argcol, off, ocols, odesc, frame in specs:
            ck = (tuple(ocols), tuple(odesc))
            if ck in sort_cache:
                order, pgid, gv, peer_start, peer_id = sort_cache[ck]
            else:
                if ocols:
                    # partition columns lead the sort so partitions are
                    # CONTIGUOUS — the shift-based peer/head detection
                    # below relies on it (an ORDER BY column repeated in
                    # the partition list is constant per partition, so
                    # dropping the duplicate preserves within-partition
                    # order)
                    skeys = list(part) + [
                        c for c in ocols if c not in part]
                    sasc = [True] * len(part) + [
                        not d for c, d in zip(ocols, odesc)
                        if c not in part]
                    order = df.sort_values(
                        skeys, ascending=sasc, kind="stable")
                else:
                    order = df
                pgid = order.groupby(part, sort=False, dropna=False).ngroup()
                gv = pgid.to_numpy()
                peer_start = peer_id = None
                if ocols:
                    oc = order[list(ocols)]
                    prev = oc.shift()
                    # null-safe peer equality: SQL treats NULL order
                    # keys as one peer group (pandas NaN.ne(NaN) is
                    # True and would rank each NULL row individually)
                    same = oc.eq(prev) | (oc.isna() & prev.isna())
                    peer_start = ((~same).any(axis=1)
                                  | pgid.ne(pgid.shift()))
                    peer_start.iloc[0] = True
                    peer_id = peer_start.cumsum().to_numpy()
                sort_cache[ck] = (order, pgid, gv, peer_start, peer_id)
            x = order[argcol] if argcol is not None else None
            if fname == "row_number":
                res = order.groupby(gv).cumcount() + 1
            elif fname == "rank":
                pos = order.groupby(gv).cumcount()
                res = pos.groupby(peer_id).transform("first") + 1
            elif fname == "dense_rank":
                res = peer_start.astype(np.int64).groupby(gv).cumsum()
            elif fname == "ntile":
                # first (cnt % n) buckets take ceil(cnt/n) rows (SQL)
                pos = order.groupby(gv).cumcount().to_numpy()
                cnt = pgid.groupby(gv).transform("size").to_numpy()
                nt = off
                q2, r2 = cnt // nt, cnt % nt
                big = (q2 + 1) * r2
                res_np = np.where(
                    pos < big, pos // (q2 + 1),
                    r2 + (pos - big) // np.maximum(q2, 1)) + 1
                res = pd.Series(res_np.astype(np.int64), index=order.index)
            elif fname == "percent_rank":
                pos = order.groupby(gv).cumcount()
                first_pos = pos.groupby(peer_id).transform("first")
                cnt = pgid.groupby(gv).transform("size")
                res = (first_pos / (cnt - 1).clip(lower=1)
                       ).astype(np.float64)
            elif fname == "cume_dist":
                pos = order.groupby(gv).cumcount()
                last_pos = pos.groupby(peer_id).transform("last")
                cnt = pgid.groupby(gv).transform("size")
                res = ((last_pos + 1) / cnt).astype(np.float64)
            elif fname in ("lag", "lead"):
                # off may be (offset, default) when LAG/LEAD got a
                # third argument: default fills ONLY out-of-window rows
                # (SQL semantics) — a genuinely NULL lagged value stays
                # NULL, so fillna (which conflates the two NaN sources)
                # is wrong; mask on partition position instead
                off_v, dflt = off if isinstance(off, tuple) else (off, None)
                res = x.groupby(gv).shift(off_v if fname == "lag" else -off_v)
                if dflt is not None:
                    pos = x.groupby(gv).cumcount()
                    if fname == "lag":
                        oow = pos < off_v
                    else:
                        cnt = x.groupby(gv).transform("size")
                        oow = pos >= cnt - off_v
                    res = res.mask(oow, dflt)
                    if x.dtype.kind in "iu" and isinstance(dflt, int) \
                            and not isinstance(dflt, bool) \
                            and not res.isna().any():
                        res = res.astype(np.int64)
                elif res.dtype.kind in "iu":
                    res = res.astype(np.float64)
            elif fname == "first_value":
                # value of the partition's FIRST row (null included —
                # not pandas' first non-null): keep x only at partition
                # heads, forward-fill within the partition
                head = pd.Series(
                    np.r_[True, gv[1:] != gv[:-1]], index=order.index)
                res = x.where(head).groupby(gv).ffill()
                if res.dtype != x.dtype and x.dtype.kind in "iu" \
                        and not res.isna().any():
                    res = res.astype(x.dtype)
            elif fname in ("last_value", "nth_value"):
                # default frame (RANGE UNBOUNDED PRECEDING..CURRENT
                # ROW): the frame END is the current row's LAST PEER —
                # the SQL gotcha where last_value is NOT the partition
                # tail.  Positional (null-included) semantics, pure
                # numpy: nearest peer-tail at-or-after each row via a
                # reversed min-accumulate.
                n_rows = len(order)
                posn = np.arange(n_rows)
                tail = np.r_[peer_id[1:] != peer_id[:-1], True]
                cand = np.where(tail, posn, n_rows)
                frame_end = np.minimum.accumulate(cand[::-1])[::-1]
                xv = x.to_numpy()
                if fname == "last_value":
                    res = pd.Series(xv[frame_end], index=order.index)
                else:
                    # nth_value(x, n): partition's n-th row, NULL while
                    # the frame hasn't reached it yet
                    headm = np.r_[True, gv[1:] != gv[:-1]]
                    start = np.maximum.accumulate(
                        np.where(headm, posn, -1))
                    idx = start + (off - 1)
                    ok = idx <= frame_end
                    res = pd.Series(
                        xv[np.minimum(idx, n_rows - 1)],
                        index=order.index).mask(~ok)
                if res.dtype != x.dtype and x.dtype.kind in "iu" \
                        and not res.isna().any():
                    res = res.astype(x.dtype)
            elif frame is not None and frame[0] == "range":
                # RANGE <n> PRECEDING .. CURRENT ROW: value window over
                # ONE ascending numeric ORDER BY key, peers included on
                # the right (SQL).  Prefix sums + two searchsorted
                # passes; partitions isolated by striding each
                # partition's keys into a disjoint numeric band.
                if len(ocols) != 1 or odesc[0]:
                    raise ValueError(
                        "RANGE frames need exactly one ascending "
                        "ORDER BY key")
                if fname not in ("sum", "count", "avg", "min", "max"):
                    raise ValueError(
                        "RANGE n PRECEDING supports SUM/COUNT/AVG/"
                        "MIN/MAX")
                n = frame[1]
                try:
                    keyf = order[ocols[0]].to_numpy().astype(np.float64)
                except (TypeError, ValueError):
                    raise ValueError(
                        "RANGE frame ORDER BY key must be numeric")
                stride = float(keyf.max() - keyf.min()) + float(n) + 1.0
                adj = keyf + gv.astype(np.float64) * stride
                src = (x if x is not None else pd.Series(
                    np.ones(len(order)), index=order.index))
                vals = src.fillna(0).to_numpy().astype(np.float64)
                cnts = src.notna().to_numpy().astype(np.float64)
                csum = np.concatenate([[0.0], np.cumsum(vals)])
                ccnt = np.concatenate([[0.0], np.cumsum(cnts)])
                lo = np.searchsorted(adj, adj - n, side="left")
                hi = np.searchsorted(adj, adj, side="right")
                if fname in ("min", "max"):
                    # variable-width windows with monotone bounds:
                    # vectorized sparse-table range min/max — O(n log n)
                    # build, one gather per row (fmin/fmax skip NaN, so
                    # NULL values drop out and all-NULL windows stay
                    # NULL, matching SQL)
                    acc = np.fmin if fname == "min" else np.fmax
                    valsm = src.to_numpy().astype(np.float64)
                    nrow = len(valsm)
                    w = hi - lo
                    out = np.full(len(w), np.nan)
                    nz = w > 0
                    if nz.any() and nrow > 0:
                        kmax = max(1, int(np.floor(
                            np.log2(max(int(w.max()), 1)))) + 1)
                        st = np.full((kmax, nrow), np.nan)
                        st[0] = valsm
                        for kk in range(1, kmax):
                            step = 1 << (kk - 1)
                            m2 = nrow - (1 << kk) + 1
                            if m2 <= 0:
                                break
                            st[kk, :m2] = acc(st[kk - 1, :m2],
                                              st[kk - 1,
                                                 step:step + m2])
                        jj = np.zeros(len(w), np.int64)
                        jj[nz] = np.floor(
                            np.log2(w[nz])).astype(np.int64)
                        out[nz] = acc(
                            st[jj[nz], lo[nz]],
                            st[jj[nz],
                               hi[nz] - np.left_shift(1, jj[nz])])
                    res = pd.Series(out, index=order.index)
                else:
                    s2 = csum[hi] - csum[lo]
                    n2 = ccnt[hi] - ccnt[lo]
                    if fname == "count":
                        res = pd.Series(n2.astype(np.int64),
                                        index=order.index)
                    elif fname == "sum":
                        res = pd.Series(np.where(n2 > 0, s2, np.nan),
                                        index=order.index)
                    else:  # avg
                        with np.errstate(invalid="ignore",
                                         divide="ignore"):
                            res = pd.Series(
                                np.where(n2 > 0, s2 / n2, np.nan),
                                index=order.index)
            elif frame is not None and frame[2] > 0:
                # ROWS ... AND m FOLLOWING: exact trailing+leading
                # decomposition — agg([i-k1, i+k2]) combines the
                # trailing window ending at i with the leading window
                # starting at i (reverse-rolling), minus the
                # double-counted current row for sum/count.  Tails
                # truncate correctly on both sides (min_periods=1
                # within the partition).
                k, k2 = frame[1], frame[2]
                src = (x if x is not None else pd.Series(
                    np.ones(len(order)), index=order.index))

                def _trail(agg):
                    if k is not None:
                        roll = src.groupby(gv).rolling(
                            k + 1, min_periods=1)
                        return getattr(roll, agg)().droplevel(0).reindex(
                            order.index)
                    if agg == "sum":
                        return src.groupby(gv).cumsum().groupby(gv).ffill()
                    if agg == "count":
                        return (src.notna().astype(np.int64)
                                .groupby(gv).cumsum())
                    if agg == "min":
                        return src.groupby(gv).cummin().groupby(gv).ffill()
                    return src.groupby(gv).cummax().groupby(gv).ffill()

                def _lead(agg):
                    rev = src.iloc[::-1]
                    roll = rev.groupby(gv[::-1]).rolling(
                        k2 + 1, min_periods=1)
                    return getattr(roll, agg)().droplevel(0).reindex(
                        order.index)

                ov_cnt = src.notna().astype(np.int64)
                if fname == "count":
                    c = (_trail("count") + _lead("count")
                         - ov_cnt).astype(np.int64)
                elif fname == "sum":
                    c = (_trail("sum") + _lead("sum")
                         - src.fillna(0)).astype(np.float64)
                elif fname == "avg":
                    s2 = _trail("sum") + _lead("sum") - src.fillna(0)
                    n2 = _trail("count") + _lead("count") - ov_cnt
                    c = s2.astype(np.float64) / n2
                else:  # min / max
                    comb = np.fmin if fname == "min" else np.fmax
                    c = pd.Series(
                        comb(_trail(fname).to_numpy(dtype=np.float64),
                             _lead(fname).to_numpy(dtype=np.float64)),
                        index=order.index)
                    if (x is not None and x.dtype.kind in "iu"
                            and not c.isna().any()):
                        c = c.astype(x.dtype)
                res = c
            elif frame is not None:
                # explicit ROWS frame: physical rows, no peer sharing
                k = frame[1]
                if k is None:
                    # ROWS UNBOUNDED PRECEDING .. CURRENT ROW
                    if fname == "count":
                        c = (x.notna().astype(np.int64).groupby(gv).cumsum()
                             if x is not None
                             else order.groupby(gv).cumcount() + 1)
                    elif fname == "sum":
                        c = (x.groupby(gv).cumsum().groupby(gv).ffill()
                             .astype(np.float64))
                    elif fname == "avg":
                        s = x.groupby(gv).cumsum().groupby(gv).ffill()
                        n2 = x.notna().astype(np.int64).groupby(gv).cumsum()
                        c = s.astype(np.float64) / n2
                    elif fname == "min":
                        c = x.groupby(gv).cummin().groupby(gv).ffill()
                    else:
                        c = x.groupby(gv).cummax().groupby(gv).ffill()
                    res = c
                else:
                    # moving aggregate over the k+1 most recent rows
                    src = (x if x is not None else pd.Series(
                        np.ones(len(order)), index=order.index))
                    roll = src.groupby(gv).rolling(
                        window=k + 1, min_periods=1)
                    agg = {"sum": "sum", "avg": "mean", "min": "min",
                           "max": "max", "count": "count"}[fname]
                    c = getattr(roll, agg)().droplevel(0)
                    if fname == "count":
                        c = c.astype(np.int64)
                    elif fname in ("sum", "avg"):
                        c = c.astype(np.float64)
                    elif (x is not None and x.dtype.kind in "iu"
                          and not c.isna().any()):
                        c = c.astype(x.dtype)
                    res = c
            elif not ocols:
                # whole-partition aggregate (no ORDER BY -> frame is the
                # entire partition)
                if fname == "count":
                    if x is None:
                        res = pgid.groupby(gv).transform("size")
                    else:
                        res = (x.notna().astype(np.int64)
                               .groupby(gv).transform("sum"))
                elif fname == "avg":
                    res = x.groupby(gv).transform("mean").astype(np.float64)
                elif fname == "sum":
                    res = x.groupby(gv).transform("sum").astype(np.float64)
                else:  # min / max
                    res = x.groupby(gv).transform(fname)
            else:
                # cumulative aggregate with peer-group (RANGE) correction
                if fname == "count":
                    if x is None:
                        c = order.groupby(gv).cumcount() + 1
                    else:
                        c = x.notna().astype(np.int64).groupby(gv).cumsum()
                elif fname == "sum":
                    c = x.groupby(gv).cumsum().groupby(gv).ffill()
                    c = c.astype(np.float64)
                elif fname == "avg":
                    s = x.groupby(gv).cumsum().groupby(gv).ffill()
                    n = x.notna().astype(np.int64).groupby(gv).cumsum()
                    c = s.astype(np.float64) / n
                elif fname == "min":
                    c = x.groupby(gv).cummin().groupby(gv).ffill()
                else:  # max
                    c = x.groupby(gv).cummax().groupby(gv).ffill()
                res = c.groupby(peer_id).transform("last")
            df[key] = res
        return df

    return fn


def _run_window_over_groups(ds, sel) -> "ray.data.Dataset":  # noqa: F821
    """Windows over GROUP BY results (the top-N-groups idiom:
    ``RANK() OVER (ORDER BY COUNT(*) DESC)``), two-phase: (1) the
    grouped select computes the group keys + every distinct aggregate
    (one bucketed exchange, HAVING applied); (2) the window select runs
    over the aggregated table with aggregate calls rewritten to the
    phase-1 columns."""
    raw_group = sel["group"] or []
    aggs: list = []
    rewritten = []
    for idx, (e, name) in enumerate(sel["items"]):
        # replaces aggregate calls everywhere — including inside window
        # arguments, window ORDER BY expressions, and QUALIFY — with
        # synthetic column refs computed in phase 1
        ne = _extract_aggs(e, aggs)
        rewritten.append((ne, name or _expr_name(e, idx)))
    qual = sel.get("qualify")
    if qual is not None:
        qual = _extract_aggs(qual, aggs)
    # phase-1 select: group keys under stable names + the aggregates
    gpairs = []
    for i, gnode in enumerate(raw_group):
        gname = (gnode[1] if isinstance(gnode, tuple)
                 and gnode[0] == "col" else f"__gk{i}")
        gpairs.append((gnode, gname))
    p1_items = [(gnode, gname) for gnode, gname in gpairs]
    for key, fname, args in aggs:
        call = ("calld" if fname.endswith("!d") else "call",
                fname[:-2] if fname.endswith("!d") else fname, args)
        p1_items.append((call, key))
    sel1 = dict(sel, items=p1_items)
    agg_ds = _run_grouped_select(ds, sel1)
    # phase-2 select: windows/projections over the aggregated table
    p2_items = []
    for ne, name in rewritten:
        for gnode, gname in gpairs:
            if not (isinstance(gnode, tuple) and gnode[0] == "col"):
                ne = _subst(ne, gnode, ("col", gname))
        p2_items.append((ne, name))
    if qual is not None:
        for gnode, gname in gpairs:
            if not (isinstance(gnode, tuple) and gnode[0] == "col"):
                qual = _subst(qual, gnode, ("col", gname))
    sel2 = {"items": p2_items, "table": None, "join": None,
            "where": None, "distinct": sel["distinct"], "group": None,
            "having": None, "qualify": qual}
    return _run_window_select(agg_ds, sel2)


def _run_window_select(ds, sel) -> "ray.data.Dataset":  # noqa: F821
    """Window-function execution: WHERE filter -> pre-project (all input
    columns + computed window args) -> one bucketed exchange per distinct
    PARTITION BY signature (each bucket computes its windows vectorized)
    -> post-project the item expressions.  A window with no PARTITION BY
    is a total order: it runs as a single-bucket pass (inherently serial,
    as on any engine — partition wide queries should PARTITION BY).
    With GROUP BY / aggregates present, delegates to the two-phase
    :func:`_run_window_over_groups`."""
    from ..stages.shuffle import bucketed_apply

    if sel["items"] is None:
        raise ValueError("SELECT * with window functions is not supported")
    qual = sel.get("qualify")
    if sel.get("group") or any(
            _has_agg(e) for e, _ in sel["items"]) or (
            qual is not None and _has_agg(qual)):
        return _run_window_over_groups(ds, sel)
    wins: list = []
    post_items = []
    for idx, (e, name) in enumerate(sel["items"]):
        ne = _extract_wins(e, wins)
        post_items.append((ne, name or _expr_name(e, idx)))
    if qual is not None:
        # QUALIFY may reference SELECT aliases (not yet projected) —
        # substitute them with their expressions first
        alias_map = {name: e for e, name in sel["items"] if name}
        schema_names = set(_hint_names(ds, sel))

        def _alias_sub(n):
            if (isinstance(n, tuple) and len(n) == 2 and n
                    and n[0] == "col" and n[1] in alias_map
                    and n[1] not in schema_names):
                return alias_map[n[1]]
            if isinstance(n, tuple):
                return tuple(
                    _alias_sub(x) if isinstance(x, (tuple, list)) else x
                    for x in n)
            if isinstance(n, list):
                return [
                    _alias_sub(x) if isinstance(x, (tuple, list)) else x
                    for x in n]
            return n

        qual = _extract_wins(_alias_sub(qual), wins)
        if not wins:
            raise ValueError("QUALIFY requires a window function")
    q = Query(ds)
    if sel["where"] is not None:
        q = q.where(_compile_expr(sel["where"]))
    names = _hint_names(ds, sel)
    pre = {c: col(c) for c in names}
    # normalize PARTITION BY entries: plain column names pass through,
    # expression entries become synthetic pre-projected partition
    # columns (shared when the same expression repeats across windows)
    pexpr_names: dict = {}
    norm_wins = []
    for key, fname, args, part, ocols, odesc, frame in wins:
        npart = []
        for pnode in part:
            if isinstance(pnode, str):
                npart.append(pnode)
            else:
                pname = pexpr_names.get(pnode)
                if pname is None:
                    pname = f"__wp{len(pexpr_names)}"
                    pexpr_names[pnode] = pname
                    pre[pname] = _compile_expr(pnode)
                npart.append(pname)
        norm_wins.append((key, fname, args, npart, ocols, odesc, frame))
    wins = norm_wins
    need_const = any(not part for _k, _f, _a, part, _o, _d, _fr in wins)
    if need_const:
        pre["__wg"] = lit(0)
    specs = []
    for key, fname, args, part, ocols, odesc, frame in wins:
        argcol = None
        no_arg = ("row_number", "rank", "dense_rank", "percent_rank",
                  "cume_dist")
        if fname not in no_arg and fname != "ntile" and not (
                fname == "count" and (not args or args[0] == ("star",))):
            if not args:
                raise ValueError(f"{fname}() window needs an argument")
            argcol = f"{key}_in"
            pre[argcol] = _compile_expr(args[0])
        off = 1
        if fname in ("lag", "lead") and len(args) > 1:
            if args[1][0] != "lit" or not isinstance(args[1][1], int):
                raise ValueError(f"{fname}() offset must be an integer "
                                 "literal")
            off = args[1][1]
            if len(args) > 2:
                # third argument = default value for out-of-window rows
                dnode = args[2]
                if (isinstance(dnode, tuple) and dnode[0] == "neg"
                        and dnode[1][0] == "lit"
                        and isinstance(dnode[1][1], (int, float))):
                    dnode = ("lit", -dnode[1][1])
                if dnode[0] != "lit":
                    raise ValueError(f"{fname}() default must be a "
                                     "literal")
                off = (off, dnode[1])
        if fname == "ntile":
            if not args or args[0][0] != "lit" \
                    or not isinstance(args[0][1], int) or args[0][1] < 1:
                raise ValueError("ntile() needs a positive integer literal")
            off = args[0][1]  # reuse the offset slot for the bucket count
        if fname in ("rank", "dense_rank", "first_value", "last_value",
                     "nth_value", "ntile",
                     "percent_rank", "cume_dist") and not ocols:
            raise ValueError(f"{fname}() requires ORDER BY in the window")
        if fname == "nth_value":
            if len(args) != 2 or args[1][0] != "lit" \
                    or not isinstance(args[1][1], int) or args[1][1] < 1:
                raise ValueError(
                    "nth_value() needs a positive integer literal n")
            off = args[1][1]
        if fname in ("last_value", "nth_value") and frame is not None:
            raise ValueError(
                f"{fname}() with an explicit frame is unsupported "
                "(default RANGE UNBOUNDED PRECEDING..CURRENT ROW only)")
        if frame is not None and not ocols:
            raise ValueError("a ROWS frame requires ORDER BY in the window")
        # ORDER BY entries are expressions: plain columns sort directly,
        # anything else sorts on a synthetic pre-projected column
        onames = []
        for j, onode in enumerate(ocols):
            if isinstance(onode, tuple) and onode[0] == "col":
                onames.append(onode[1])
            else:
                oname = f"{key}_o{j}"
                pre[oname] = _compile_expr(onode)
                onames.append(oname)
        specs.append((key, fname, argcol, off,
                      list(part) or ["__wg"], onames, list(odesc),
                      frame))
    out = q.select(**pre).run()
    by_part: dict = {}
    for sp in specs:
        by_part.setdefault(tuple(sp[4]), []).append(
            (sp[0], sp[1], sp[2], sp[3], sp[5], sp[6], sp[7]))
    for part, group in by_part.items():
        # None = the cluster-sized default_buckets()
        nb = 1 if part == ("__wg",) else None
        out = bucketed_apply(
            out, list(part), _window_bucket_fn(list(part), group),
            n_buckets=nb)
    q2 = Query(out)
    if qual is not None:
        # QUALIFY filters on the computed window columns, before the
        # final projection (the window analogue of HAVING)
        q2 = q2.where(_compile_expr(qual))
    proj = {name: _compile_expr(ne) for ne, name in post_items}
    return q2.select(**proj).run()


def _split_conjuncts(node) -> list:
    """Flatten a WHERE tree's top-level AND chain into conjuncts."""
    if isinstance(node, tuple) and node and node[0] == "and":
        return _split_conjuncts(node[1]) + _split_conjuncts(node[2])
    return [node]


def _and_fold(conjuncts):
    if not conjuncts:
        return None
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = ("and", out, c)
    return out


def _collect_cols(node, out: set) -> None:
    """Column names referenced anywhere in an AST expression node."""
    if isinstance(node, (tuple, list)):
        if len(node) == 2 and node[0] == "col" and isinstance(node[1], str):
            out.add(node[1])
            return
        if len(node) == 7 and node[0] == "win":
            # window node: args + PARTITION BY names + ORDER BY exprs
            for a in node[2]:
                _collect_cols(a, out)
            out.update(node[3])
            for o in node[4]:
                _collect_cols(o, out)
            return
        for sub in node:
            _collect_cols(sub, out)


def _int_cols(*schemas) -> dict:
    """name -> declared numpy dtype for columns DECLARED integer in any
    of ``schemas`` (a later schema wins a shared name) — pandas
    conversion of a null-bearing arrow int column yields float64, so
    join kernels restore these after the merge (nullable-safe, declared
    width preserved: an int32 column must NOT come back int64 or the
    oracle dtype check flags it)."""
    return {f.name: f.type.to_pandas_dtype()
            for sch in schemas for f in sch if pa.types.is_integer(f.type)}


def _restore_int_cols(m: pd.DataFrame, int_cols: dict) -> pd.DataFrame:
    """Undo NaN-driven int->float widening ONLY — a column that is
    already integer (any width) passes through untouched."""
    for c in m.columns:
        if c in int_cols and m[c].dtype.kind == "f":
            if m[c].isna().any():
                nullable = np.dtype(int_cols[c]).name.capitalize()
                m[c] = m[c].astype(nullable)
            else:
                m[c] = m[c].astype(int_cols[c])
    return m


def _driver_read_small(ds_b):
    """Short-circuit collecting a PURE parquet Read, optionally under one
    columns-only Project (the planner's ``select_columns`` pruning) but
    with no other transform, filter, partitioning or UDF, by reading
    the file(s) driver-side: a Ray streaming execution costs ~0.3 s of
    launch latency even for a 25-row build table, paid once per
    broadcast join.  Returns None whenever the plan is anything but
    that exact shape, or spans more than 16 files."""
    try:
        dag = ds_b._logical_plan.dag
        cols = None
        if type(dag).__name__ == "Project":
            if dag.cols is None or dag.cols_rename or dag.exprs:
                return None
            cols = list(dag.cols)
            dag = dag.input_dependencies[0]
        if type(dag).__name__ != "Read" or dag.input_dependencies:
            return None
        src = getattr(dag, "_datasource", None)
        if type(src).__name__ != "ParquetDatasource":
            return None
        if (getattr(src, "_partition_columns", None)
                or getattr(src, "_block_udf", None)
                or getattr(src, "_to_batches_kwargs", None)):
            return None
        paths = list(getattr(src, "_pq_paths", None) or [])
        if not paths or len(paths) > 16:
            return None
        import pyarrow.parquet as _pq

        read_cols = getattr(src, "_data_columns", None)
        if cols is not None:
            if read_cols is not None and not set(cols) <= set(read_cols):
                return None
            read_cols = cols
        return pa.concat_tables(
            [_pq.read_table(p, columns=read_cols) for p in paths],
            promote_options="default")
    except Exception:
        return None


def _collect_small(ds_b) -> pa.Table:
    """Materialize a small dataset's blocks into one Arrow table.
    Blocks may be Arrow or pandas (a prior join / map_groups stage
    yields pandas blocks) — normalize before concatenating."""
    import ray

    direct = _driver_read_small(ds_b)
    if direct is not None:
        return direct
    blocks = ray.get(ds_b.to_arrow_refs())
    return pa.concat_tables(
        [b if isinstance(b, pa.Table)
         else pa.Table.from_pandas(b, preserve_index=False)
         for b in blocks],
        promote_options="default")


def _broadcast_map(ds_a, b_df: pd.DataFrame, b_schema: pa.Schema, merge):
    """Map-side join of ``ds_a`` against the collected build table:
    ``ray.put`` it once, run ``merge(batch_df, build_df)`` per batch.
    Overlap columns (the merge's ``_r`` dupes, dropped: shared names
    carry LEFT values) and the int restore are read off each batch's
    Arrow schema and the build table's, so planning never probes
    ``ds_a``'s schema (on a derived pipeline that runs its prefix)."""
    import ray

    b_ref = ray.put(b_df)

    def fn(batch: pa.Table) -> pd.DataFrame:
        bd = ray.get(b_ref)
        m = merge(batch.to_pandas(), bd)
        drop = [f"{c}_r" for c in batch.column_names
                if c in bd.columns and f"{c}_r" in m.columns]
        return _restore_int_cols(m.drop(columns=drop),
                                 _int_cols(batch.schema, b_schema))

    return ds_a.map_batches(fn, batch_format="pyarrow")


def _broadcast_join(ds_a, ds_b, lcol, rcol, how: str = "inner"):
    """Inner or left equi-join (single or composite key) with a SMALL
    right side: collect + ``ray.put`` the build table once, probe
    map-side in every batch — no shuffle at all (the planner picks this
    when the right table is under the broadcast threshold; same output
    contract as :func:`_join_on`).  A left join is still map-side-
    correct here: every left row appears in exactly one batch."""
    lcols = [lcol] if isinstance(lcol, str) else list(lcol)
    rcols = [rcol] if isinstance(rcol, str) else list(rcol)
    b_tbl = _collect_small(ds_b)
    b_df = b_tbl.to_pandas()
    # SQL NULL keys never match — drop build rows with ANY null key
    # once (pandas merge would pair NaN==NaN).  Probe-side null keys
    # then can't match either: pandas only pairs NaN==NaN when BOTH
    # sides have them — so inner drops and left null-preserves,
    # exactly SQL
    keymask = b_df[rcols].notna().all(axis=1)
    if not keymask.all():
        b_df = b_df[keymask]
    return _broadcast_map(ds_a, b_df, b_tbl.schema, lambda a, b: a.merge(
        b, left_on=lcols, right_on=rcols, how=how, suffixes=("", "_r")))


def _cross_join(ds_a, ds_b, broadcast_threshold: int = 1_000_000):
    """CROSS JOIN (cartesian product) with a bounded right side:
    collect + ``ray.put`` the build table once, per-batch pandas cross
    merge.  An over-threshold right side is refused loudly — at corpus
    scale an unbounded cartesian is always a bug; theta-joins that need
    scale go through the dedicated range/distance join operators."""
    b_tbl = _collect_small(ds_b)
    if b_tbl.num_rows > broadcast_threshold:
        raise ValueError(
            f"CROSS JOIN right side has {b_tbl.num_rows} rows "
            f"(> {broadcast_threshold}); use a keyed join")
    return _broadcast_map(ds_a, b_tbl.to_pandas(), b_tbl.schema,
                          lambda a, b: a.merge(b, how="cross",
                                               suffixes=("", "_r")))


def _join_on(ds_a, ds_b, lcol, rcol, how: str = "inner"):
    """Inner/left/right/full equi-join (single or composite key) of two
    datasets as one bucketed hash shuffle (rows of both sides co-locate
    by key, so each bucket's outer merge is globally correct).  NULL
    join keys follow SQL: a null in ANY key column never matches, but
    outer joins still surface those rows with nulls."""
    from ..stages.shuffle import bucketed_apply

    lcols = [lcol] if isinstance(lcol, str) else list(lcol)
    rcols = [rcol] if isinstance(rcol, str) else list(rcol)
    jks = [f"__jk{i}" for i in range(len(lcols))]
    a_names = ds_a.schema().names
    b_names = ds_b.schema().names
    overlap = set(a_names) & set(b_names)
    # int columns come back float64 from the union's null-padding (NaN
    # contamination in pandas) — restore the declared arrow dtypes after
    # the per-bucket merge
    int_cols = set()
    for sch in (ds_a.schema(), ds_b.schema()):
        for name, typ in zip(sch.names, sch.types):
            # a derived pipeline's schema may carry plain Python types
            if isinstance(typ, pa.DataType) and pa.types.is_integer(typ):
                int_cols.add(name)

    # harmonize numeric dtypes of same-named / key columns across the
    # two sides before the union (a derived side may have promoted
    # int -> float via null groups; mismatched block schemas would fail
    # the exchange's Arrow concat).  The post-merge int-restore below
    # undoes the widening when no nulls survive.
    at = {n: t for n, t in zip(ds_a.schema().names, ds_a.schema().types)}
    bt = {n: t for n, t in zip(ds_b.schema().names, ds_b.schema().types)}

    def _unify(ta, tb):
        if (ta is None or tb is None or ta == tb
                or not isinstance(ta, pa.DataType)
                or not isinstance(tb, pa.DataType)):
            return None
        num = (lambda t: pa.types.is_integer(t) or pa.types.is_floating(t))
        return pa.float64() if num(ta) and num(tb) else None

    cast_a: dict = {}
    cast_b: dict = {}
    for n in overlap:
        u = _unify(at.get(n), bt.get(n))
        if u is not None:
            if at[n] != u:
                cast_a[n] = u
            if bt[n] != u:
                cast_b[n] = u
    for jk, lc, rc in zip(jks, lcols, rcols):
        u = _unify(at.get(lc), bt.get(rc))
        if u is not None:
            if at.get(lc) != u:
                cast_a[jk] = u
            if bt.get(rc) != u:
                cast_b[jk] = u

    def tag(src, keys, casts):
        def fn(b: pa.Table) -> pa.Table:
            t = b.append_column("__src", pa.array(
                np.full(b.num_rows, src, np.int8)))
            for jk, key in zip(jks, keys):
                t = t.append_column(jk, t.column(key))
            for cn, tt in casts.items():
                idx = t.schema.get_field_index(cn)
                t = t.set_column(idx, cn, pa.compute.cast(t.column(cn), tt))
            return t

        return fn

    both = ds_a.map_batches(tag(0, lcols, cast_a),
                            batch_format="pyarrow").union(
        ds_b.map_batches(tag(1, rcols, cast_b), batch_format="pyarrow"))

    pd_how = "outer" if how == "full" else how

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # select each side's declared columns directly — the union's
        # null-padding columns are simply not selected (never
        # dropna(how="all"): a legitimately all-null column within one
        # bucket would vanish and the selection would raise)
        a = g[g["__src"] == 0][
            [c for c in a_names if c in g.columns] + jks]
        b = g[g["__src"] == 1][
            [c for c in b_names if c in g.columns] + jks]
        # SQL NULL keys never match (pandas merge would pair NaN==NaN);
        # outer-preserved sides re-append their null-key rows unmatched
        a_nmask = a[jks].isna().any(axis=1)
        b_nmask = b[jks].isna().any(axis=1)
        a_null = a[a_nmask]
        b_null = b[b_nmask]
        if len(a_null):
            a = a[~a_nmask]
        if len(b_null):
            b = b[~b_nmask]
        m = a.merge(b, on=jks, how=pd_how,
                    suffixes=("", "_r"))
        parts = [m]
        if how in ("left", "full") and len(a_null):
            parts.append(a_null)
        if how in ("right", "full") and len(b_null):
            # shared-named output columns carry LEFT values (the merge's
            # suffix convention) — route the right side's overlap values
            # to the dropped _r names so unmatched rows stay consistent
            parts.append(b_null.rename(
                columns={c: f"{c}_r" for c in overlap}))
        if len(parts) > 1:
            m = pd.concat(parts, ignore_index=True)
        drop = jks + [f"{c}_r" for c in overlap if f"{c}_r" in m.columns]
        m = m.drop(columns=[c for c in drop if c in m.columns])
        for c in m.columns:
            if c in int_cols and m[c].dtype != np.int64:
                # nullable-safe: fall back to pandas Int64 when the
                # column carries genuine nulls
                m[c] = (m[c].astype("Int64") if m[c].isna().any()
                        else m[c].astype(np.int64))
        return m

    return bucketed_apply(both, jks, merge)


def _per_key_topn(ds, kcols: list, okeys: list, n: int):
    """Distributed per-key top-n: one bucketed exchange keyed on
    ``kcols``; the map side pre-trims each split task's rows to its
    local per-key head(n) (a valid combiner — the global top-n of a
    union is within the union of local top-ns), so the exchange moves
    at most n rows per (task, key).  ``okeys`` = [(col, desc), ...]."""
    from ..stages.shuffle import bucketed_apply

    cols = [c for c, _ in okeys]
    asc = [not d for _, d in okeys]

    def head(g: pd.DataFrame) -> pd.DataFrame:
        if cols:
            g = g.sort_values(cols, ascending=asc, kind="stable")
        return g.groupby(kcols, sort=False, dropna=False).head(n)

    return bucketed_apply(ds, kcols, head, combine=head)


def _exec_lateral(sub_ast, tables, broadcast_threshold):
    """Plan one LATERAL subquery: classify its WHERE into inner filters
    + (outer_col, inner_col) correlation equalities (standard scoping —
    qualifiers collapse at parse time, so correlation is by DISTINCT
    column names, the module-wide contract), lower ORDER BY .. LIMIT n
    to a per-correlation-key distributed top-n (per-OUTER-ROW limit ==
    per-KEY limit when the correlation is pure equality), and apply the
    subquery's projection.  Returns (rhs_dataset, outer_join_cols,
    rhs_join_cols, hidden_rhs_cols_to_drop)."""
    if sub_ast.get("set_ops"):
        raise ValueError("LATERAL subquery with set operations "
                         "is unsupported")
    sel = sub_ast["selects"][0]
    if not isinstance(sel["table"], str):
        raise ValueError("LATERAL subquery must read a plain table")
    if (sel.get("join") or sel.get("group") or sel.get("distinct")
            or sel.get("having") is not None
            or sel.get("qualify") is not None
            or sel.get("rollup")):
        raise ValueError(
            "LATERAL supports SELECT ... FROM t WHERE ... "
            "ORDER BY ... LIMIT n only")
    if sel["items"] is not None and any(
            _has_agg(e) or _has_win(e) for e, _ in sel["items"]):
        raise ValueError(
            "aggregates/window functions in a LATERAL subquery "
            "are unsupported")
    inner = tables[sel["table"]]
    inner_names = set(inner.schema().names)
    corr: list = []
    inner_conjs: list = []
    for conj in (_split_conjuncts(sel["where"])
                 if sel["where"] is not None else []):
        cc: set = set()
        _collect_cols(conj, cc)
        if (isinstance(conj, tuple) and conj[0] == "eq"
                and conj[1][0] == "col" and conj[2][0] == "col"
                and conj[1][1] == conj[2][1]):
            raise ValueError(
                "LATERAL self-correlation on the same column name "
                f"({conj[1][1]!r}) is unsupported: alias the inner "
                "column in a derived table")
        if cc <= inner_names:
            inner_conjs.append(conj)
        elif (isinstance(conj, tuple) and conj[0] == "eq"
              and conj[1][0] == "col" and conj[2][0] == "col"):
            a, b = conj[1][1], conj[2][1]
            if a in inner_names and b not in inner_names:
                corr.append((b, a))
            elif b in inner_names and a not in inner_names:
                corr.append((a, b))
            else:
                raise ValueError(
                    f"unresolvable LATERAL conjunct: {conj}")
        else:
            raise ValueError(
                "LATERAL correlation supports equality conjuncts "
                f"only, got: {conj}")
    ds_i = inner
    if inner_conjs:
        ds_i = Query(ds_i).where(
            _compile_expr(_and_fold(inner_conjs))).run()
    limit = sub_ast.get("limit")
    if sub_ast.get("offset"):
        raise ValueError("LATERAL OFFSET is unsupported")
    if limit is not None and corr:
        okeys = []
        for e, d in zip(sub_ast.get("order") or [],
                        sub_ast.get("desc") or []):
            if not (isinstance(e, tuple) and e[0] == "col"
                    and e[1] in inner_names):
                raise ValueError(
                    "LATERAL ORDER BY must name plain inner columns")
            okeys.append((e[1], bool(d)))
        if any(n is not None for n in (sub_ast.get("nulls") or [])):
            raise ValueError("LATERAL NULLS FIRST/LAST is unsupported")
        ds_i = _per_key_topn(ds_i, [ic for _, ic in corr], okeys, limit)
    elif limit is not None or sub_ast.get("order"):
        raise ValueError(
            "uncorrelated LATERAL with ORDER BY/LIMIT: use a plain "
            "derived table instead")
    lcols = [oc for oc, _ in corr]
    hidden: list = []
    if sel["items"] is None:
        rcols = [ic for _, ic in corr]
        return ds_i, lcols, rcols, hidden
    proj = {}
    out_names = {}
    for idx, (e, name) in enumerate(sel["items"]):
        nm = name or _expr_name(e, idx)
        icc: set = set()
        _collect_cols(e, icc)
        outer_refs = sorted(icc - inner_names)
        if outer_refs:
            raise ValueError(
                f"LATERAL SELECT list references outer column(s) "
                f"{outer_refs}: project them in the outer query "
                "instead")
        proj[nm] = _compile_expr(e)
        if (isinstance(e, tuple) and e[0] == "col"):
            out_names.setdefault(e[1], nm)
    rcols = []
    for i, (_, ic) in enumerate(corr):
        if out_names.get(ic) == ic:
            rcols.append(ic)
        else:
            h = f"__lat{i}"
            proj[h] = col(ic)
            rcols.append(h)
            hidden.append(h)
    return Query(ds_i).select(**proj).run(), lcols, rcols, hidden


def _split_correlation(sub_sel, tables, kind: str, outer_names=None):
    """Classify a subquery's WHERE conjuncts into inner-only filters and
    (inner_col, outer_col) correlation equalities.  Standard SQL
    scoping: a conjunct whose columns all live in the inner table is
    inner-local; a single equality pairing one inner and one outer
    column is the correlation.  Limitation: qualifiers collapse at
    parse time, so a column-to-column comparison whose two names both
    exist in the inner AND the outer scope (``f.entity_id = e.next_id``
    with both sides over the same table, or the self-correlation
    ``i.s = outer.s``) cannot be told from an inner filter — rejected
    loudly below rather than silently read as one; correlate on
    distinct names or pre-alias in a derived table.  ``outer_names``
    (a set, or a callable returning one) is read only for such a
    conjunct."""
    if not isinstance(sub_sel["table"], str):
        raise ValueError(f"{kind} subquery must reference a plain table")
    if sub_sel.get("join") is not None or sub_sel.get("group"):
        raise ValueError(f"{kind} subquery with JOIN/GROUP BY unsupported")
    inner = tables[sub_sel["table"]]
    inner_names = set(inner.schema().names)
    corr, ineq, inner_conjs = [], [], []
    _FLIP = {"gt": "lt", "ge": "le", "lt": "gt", "le": "ge"}
    conjs = (_split_conjuncts(sub_sel["where"])
             if sub_sel["where"] is not None else [])
    for conj in conjs:
        cc: set = set()
        _collect_cols(conj, cc)
        if (isinstance(conj, tuple) and conj[0] == "eq"
                and conj[1][0] == "col" and conj[2][0] == "col"
                and conj[1][1] == conj[2][1]):
            # x = x: qualifiers collapsed — this is a self-correlation
            # (i.x = outer.x), which would silently become a tautology
            raise ValueError(
                f"{kind} self-correlation on the same column name "
                f"({conj[1][1]!r}) is unsupported: alias the inner "
                "column in a derived table")
        if (isinstance(conj, tuple) and (conj[0] == "eq" or conj[0] in _FLIP)
                and conj[1][0] == "col" and conj[2][0] == "col"
                and cc <= inner_names):
            outer = (outer_names() if callable(outer_names)
                     else outer_names) or set()
            if cc <= set(outer):
                raise ValueError(
                    f"ambiguous {kind} conjunct {conj}: both column names "
                    "exist in the inner and the outer scope and "
                    "qualifiers collapse at parse time — alias one "
                    "side's column in a derived table")
        if cc <= inner_names:
            inner_conjs.append(conj)
        elif (isinstance(conj, tuple) and conj[0] == "eq"
              and conj[1][0] == "col" and conj[2][0] == "col"):
            a, b = conj[1][1], conj[2][1]
            if a in inner_names and b not in inner_names:
                corr.append((a, b))
            elif b in inner_names and a not in inner_names:
                corr.append((b, a))
            else:
                raise ValueError(f"unresolvable {kind} conjunct: {conj}")
        elif (isinstance(conj, tuple) and conj[0] in _FLIP
              and conj[1][0] == "col" and conj[2][0] == "col"):
            # inequality correlation, normalized to "inner OP outer"
            a, b = conj[1][1], conj[2][1]
            if a in inner_names and b not in inner_names:
                ineq.append((conj[0], a, b))
            elif b in inner_names and a not in inner_names:
                ineq.append((_FLIP[conj[0]], b, a))
            else:
                raise ValueError(f"unresolvable {kind} conjunct: {conj}")
        else:
            raise ValueError(f"unsupported {kind} conjunct: {conj}")
    if len(corr) > 1:
        raise ValueError(f"{kind} supports a single correlation equality")
    if len(ineq) > 1 or (ineq and corr):
        raise ValueError(
            f"{kind} supports a single correlation conjunct (one "
            "equality OR one inequality)")
    return inner_conjs, corr, ineq


def _pending_semi_join(vals_ds, probe_node, pending):
    """Bucketed semi/anti-join for a value set above the broadcast cap
    (:func:`_semi_join`): the set never collects to the driver.  Its
    first column is projected, null-dropped, deduped through the
    map-side-combining distinct exchange, tagged with an int8 marker,
    and LEFT-joined onto the outer query on the plain probe column (the
    planner sees a derived pipeline and picks the bucketed hash join).
    The caller reduces the probe to a null-test on the returned marker
    column.  Reference analogue: the IdSet closure membership filter is
    applied partition-side too (filter/filter.go:94-188)."""
    from ..stages.shuffle import distinct as _distinct

    i = len(pending)
    kcol, mcol = f"__sjk{i}", f"__sjm{i}"

    def project(t: pa.Table, _k=kcol) -> pa.Table:
        return pa.table({_k: t.column(0)}).drop_null()

    def mark(t: pa.Table, _m=mcol) -> pa.Table:
        return t.append_column(_m, pa.array(np.ones(t.num_rows, np.int8)))

    marker = _distinct(
        vals_ds.map_batches(project, batch_format="pyarrow"), [kcol]
    ).map_batches(mark, batch_format="pyarrow")
    pending.append((marker, probe_node[1], kcol, "left"))
    return ("col", mcol)


def _null_count_col0(ds) -> int:
    """Distributed null count of a (materialized) dataset's first column
    — O(blocks) driver result, the corpus never collects."""
    parts = ds.map_batches(
        lambda t: pa.table({"n": pa.array([t.column(0).null_count],
                                          pa.int64())}),
        batch_format="pyarrow").to_pandas()
    return int(parts["n"].sum()) if len(parts) else 0


def _block_unique(t: pa.Table) -> pa.Table:
    """Per-block dedup of a value subquery's first column (a NULL, if
    any, survives as one value)."""
    import pyarrow.compute as pc

    return pa.table({"__sjv": pc.unique(t.column(0))})


def _semi_join(vals_ds, probe, pending, broadcast_threshold, kind: str):
    """The one semi-join primitive behind IN / NOT IN (subquery) and
    correlated [NOT] EXISTS (``kind``: "in", "not_in", "exists",
    "not_exists").  ``vals_ds`` is the value subquery, run once and
    never through a DISTINCT exchange: each block dedups with
    ``pc.unique``.  A set of at most ``broadcast_threshold`` values
    (also taken whatever its size where no marker join can follow:
    ``pending`` is None, or the probe is an expression) gathers into
    one deduped Arrow array on the driver, whose null flag comes free,
    and ships once by ``ray.put`` as an ``in_set`` node (``pc.is_in``
    per batch, the 3VL of ``Expr.isin``).  A larger set takes the
    bucketed marker join (:func:`_pending_semi_join`).  EXISTS ignores
    NULL members (no inner value equals anything through NULL), and
    NOT EXISTS is TRUE for a NULL probe, unlike NOT IN's 3VL."""
    import ray

    uniq = vals_ds.map_batches(_block_unique,
                               batch_format="pyarrow").materialize()
    exists = kind in ("exists", "not_exists")
    negated = kind in ("not_in", "not_exists")
    if (uniq.count() > broadcast_threshold and pending is not None
            and isinstance(probe, tuple) and probe[0] == "col"):
        m = _pending_semi_join(uniq, probe, pending)
        if exists:
            # NULL outer probes never match the marker join, so the
            # null-test alone is exact for both polarities
            return ("isnull", m) if negated else ("notnull", m)
        # full 3VL over the marker join, polarity-safe: a member probe
        # carries the marker (m IS NOT NULL); a NULL probe never
        # matches; a NULL in the value set makes every non-match NULL.
        # The null check is distributed (O(blocks))
        hit = ("lit", not negated)
        if _null_count_col0(uniq):
            # member -> hit, anything else -> NULL
            return ("case", [(("notnull", m), hit)], None)
        # member -> hit, non-null non-member -> its negation, NULL
        # probe -> NULL
        return ("case", [(("notnull", m), hit),
                         (("notnull", probe), ("lit", negated))], None)
    blocks = [b for b in ray.get(uniq.to_arrow_refs()) if b.num_columns]
    vs = (pa.concat_tables(blocks, promote_options="permissive")
          .column(0).unique() if blocks else pa.array([]))
    had_null = vs.null_count > 0 and not exists
    vs = vs.drop_null()
    if len(vs) == 0 and not had_null:
        # EMPTY value set: the quantification is vacuous — IN / EXISTS
        # are FALSE and NOT IN / NOT EXISTS TRUE for EVERY probe,
        # including NULL
        return _always_true(probe) if negated else _always_false(probe)
    node = ("in_set", probe, ray.put(vs), had_null)
    if kind == "not_exists":
        # NULL probe rows satisfy NOT EXISTS (no inner row can equal NULL)
        return ("or", ("isnull", probe), ("not", node))
    # NOT IN: in_3vl is exact in every polarity (member -> FALSE,
    # non-member with a NULL in the set -> NULL, NULL probe -> NULL),
    # so plain negation survives an enclosing NOT
    return ("not", node) if negated else node


def _resolve_exists(sub_sel, tables, broadcast_threshold, outer_names,
                    negated: bool, pending=None):
    """[NOT] EXISTS (SELECT ... FROM inner WHERE inner.c = outer.c AND
    inner-only conjuncts): rewritten into a value-set semi/anti probe.
    Scoping is standard SQL — a conjunct whose columns all live in the
    inner table is inner-local; a single equality pairing one inner and
    one outer column is the correlation.  The equality form is a
    semi-join on the inner column's values (:func:`_semi_join`: at most
    ``broadcast_threshold`` values broadcast as one Arrow array, larger
    sets take the bucketed marker join).  NOT EXISTS is true for a NULL
    outer probe (unlike NOT IN's 3VL)."""
    inner_conjs, corr, ineq = _split_correlation(sub_sel, tables, "EXISTS",
                                                 outer_names)
    if ineq:
        # single inequality correlation (inner.m OP outer.x): EXISTS
        # iff the inner side's extreme value satisfies it — m > x has a
        # witness iff MAX(m) > x, m < x iff MIN(m) < x.  One global
        # aggregate over the filtered inner side (a scalar to the
        # driver, never the value set)
        iop, ic, oc = ineq[0]
        agg = "max" if iop in ("gt", "ge") else "min"
        sub_ast = {"selects": [dict(
            sub_sel, items=[(("call", agg, [("col", ic)]), "v")],
            where=_and_fold(inner_conjs), distinct=False, group=None)],
            "set_ops": [], "order": None, "desc": None, "limit": None}
        ext = _exec_ast(sub_ast, tables, broadcast_threshold).to_pandas()
        v = ext.iloc[0, 0] if len(ext) else None
        v = None if v is None or (isinstance(v, float) and np.isnan(v)) \
            else (v.item() if hasattr(v, "item") else v)
        probe = ("col", oc)
        if v is None:
            # empty inner (or all-NULL m): no witness exists — EXISTS
            # is strictly boolean, so the constant must be polarity-safe
            return _always_true(probe) if negated else _always_false(probe)
        flip = {"gt": "lt", "ge": "le", "lt": "gt", "le": "ge"}
        cmp_node = (flip[iop], probe, ("lit", v))
        if negated:
            # a NULL outer probe satisfies NOT EXISTS (no inner row can
            # compare true against NULL)
            return ("or", ("isnull", probe), ("not", cmp_node))
        return cmp_node
    if not corr:
        # uncorrelated EXISTS: a constant — probe one row.  The constant
        # predicate must still be ARRAY-producing for the filter kernel,
        # so anchor it to an arbitrary outer column
        sub_ast = {"selects": [dict(
            sub_sel, items=[(("lit", 1), "one")],
            where=_and_fold(inner_conjs), distinct=False)],
            "set_ops": [], "order": None, "desc": None, "limit": 1}
        n = _exec_ast(sub_ast, tables, broadcast_threshold).count()
        truthy = (n > 0) != negated
        outer = (outer_names() if callable(outer_names)
                 else (outer_names or set()))
        anchor = ("col", sorted(outer)[0])
        return _always_true(anchor) if truthy else _always_false(anchor)
    ic, oc = corr[0]
    outer = outer_names() if callable(outer_names) else (outer_names or set())
    if outer and oc not in outer:
        raise ValueError(f"EXISTS correlation column {oc!r} is in neither "
                         "scope")
    sub_ast = {"selects": [dict(
        sub_sel, items=[(("col", ic), ic)],
        where=_and_fold(inner_conjs), distinct=False)],
        "set_ops": [], "order": None, "desc": None, "limit": None}
    return _semi_join(_exec_ast(sub_ast, tables, broadcast_threshold),
                      ("col", oc), pending, broadcast_threshold,
                      "not_exists" if negated else "exists")


def _build_cum_probe(pk: pd.DataFrame, fname: str, iop: str, oc: str):
    """Compile an inequality-correlated scalar aggregate (``SELECT
    AGG(v) FROM inner WHERE inner.m OP outer.x``) into a sorted
    cumulative-aggregate probe node.

    Per-distinct-key partial aggregates (keys-sized — the same
    driver-small contract as the equality decorrelation) are sorted by
    key and accumulated from the side the inequality selects; each
    outer row then picks its window with ONE searchsorted.  O(distinct
    keys) broadcast state, O(log k) per outer row, no per-row subquery
    execution.  Keys compare as float64 (exact to 2^53, the same
    mantissa contract as the exchange's routing canonicalization)."""
    if "__m" not in pk.columns:
        # empty inner side: Dataset.to_pandas() drops columns on
        # zero-row datasets — every window is empty
        pk = pd.DataFrame({c: pd.Series([], dtype="float64")
                           for c in ("__m", "__s", "__c", "__v")})
    pk = pk.dropna(subset=["__m"])
    try:
        m = pk["__m"].to_numpy(np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            "inequality-correlated scalar subquery needs a numeric "
            "correlation column") from None
    order = np.argsort(m, kind="stable")
    m = m[order]
    n = len(m)
    from_high = iop in ("gt", "ge")
    # cut index j = searchsorted(keys, x, side) partitions keys into
    # keys[:j] (the lt/le window) and keys[j:] (the gt/ge window)
    side = {"gt": "right", "ge": "left", "lt": "left", "le": "right"}[iop]
    payload = {"keys": m, "side": side, "kind": fname}
    if fname in ("sum", "avg", "count"):
        c = pk["__c"].to_numpy(np.float64)[order] if n else np.zeros(0)
        cum_c = np.zeros(n + 1)
        if from_high:
            cum_c[:n] = np.cumsum(c[::-1])[::-1]
        else:
            cum_c[1:] = np.cumsum(c)
        payload["c"] = cum_c
        if fname in ("sum", "avg"):
            s = np.nan_to_num(pd.to_numeric(pk["__s"], errors="coerce")
                              .to_numpy(np.float64)[order]) if n \
                else np.zeros(0)
            cum_s = np.zeros(n + 1)
            if from_high:
                cum_s[:n] = np.cumsum(s[::-1])[::-1]
            else:
                cum_s[1:] = np.cumsum(s)
            payload["s"] = cum_s
    else:  # min / max
        v = (pd.to_numeric(pk["__v"], errors="coerce")
             .to_numpy(np.float64)[order] if n else np.zeros(0))
        acc = np.fmin if fname == "min" else np.fmax
        vm = np.full(n + 1, np.nan)
        if n:
            if from_high:
                vm[:n] = acc.accumulate(v[::-1])[::-1]
            else:
                vm[1:] = acc.accumulate(v)
        payload["v"] = vm
    return ("cum_probe", ("col", oc), payload)


def _resolve_subqueries(node, tables, broadcast_threshold,
                        outer_names=None, pending=None):
    """Resolve ("in_sub", e, select) nodes through :func:`_semi_join`:
    the subquery runs first (its own plan, same table map) and its FIRST
    column becomes the value set — the reference evaluates IN sets
    eagerly too (sqlselect/tables.go:53-75).  Also resolves [NOT]
    EXISTS (semi/anti probe, see :func:`_resolve_exists`),
    uncorrelated scalar subqueries (eager literal), and CORRELATED
    scalar subqueries — decorrelated classically: the inner aggregates
    per correlation key, the result LEFT-joins onto the outer query (an
    entry appended to ``pending``), and the node becomes a column ref
    (missing keys surface as SQL NULL via the left join)."""
    if isinstance(node, list):
        # function-argument lists (e.g. COALESCE(.., (SELECT ..)))
        return [
            _resolve_subqueries(x, tables, broadcast_threshold,
                                outer_names, pending) for x in node]
    if not isinstance(node, tuple) or not node:
        return node
    if node[0] == "not" and isinstance(node[1], tuple) \
            and node[1][0] == "exists":
        return _resolve_exists(node[1][1], tables, broadcast_threshold,
                               outer_names, negated=True, pending=pending)
    if node[0] == "exists":
        return _resolve_exists(node[1], tables, broadcast_threshold,
                               outer_names, negated=False, pending=pending)
    if node[0] == "scalar_sub":
        sub_sel = node[1]
        corr: list = []
        ineq: list = []
        inner_conjs = None
        if (isinstance(sub_sel["table"], str)
                and sub_sel.get("join") is None
                and not sub_sel.get("group")):
            inner_conjs, corr, ineq = _split_correlation(
                sub_sel, tables, "scalar subquery", outer_names)
        if ineq:
            # single inequality correlation: decorrelate into a sorted
            # cumulative-aggregate probe (see _build_cum_probe)
            items = sub_sel["items"]
            if (items is None or len(items) != 1
                    or not _has_agg(items[0][0])):
                raise ValueError(
                    "correlated scalar subquery must select exactly "
                    "one aggregate expression")
            aggs: list = []
            rewritten = _extract_aggs(items[0][0], aggs)
            if len(aggs) != 1 or rewritten != ("col", aggs[0][0]):
                raise ValueError(
                    "inequality-correlated scalar subquery must be a "
                    "single plain aggregate call")
            _key, fname, fargs = aggs[0]
            if fname not in ("sum", "count", "min", "max", "avg"):
                raise ValueError(
                    f"inequality-correlated scalar aggregate {fname!r} "
                    "unsupported (sum/count/min/max/avg)")
            iop, ic, oc = ineq[0]
            part_items = [(("col", ic), "__m")]
            if fname in ("sum", "avg"):
                part_items += [(("call", "sum", fargs), "__s"),
                               (("call", "count", fargs), "__c")]
            elif fname == "count":
                part_items += [(("call", "count", fargs), "__c")]
            else:
                part_items += [(("call", fname, fargs), "__v")]
            sub_ast = {"selects": [dict(
                sub_sel, items=part_items, where=_and_fold(inner_conjs),
                group=[("col", ic)], distinct=False)],
                "set_ops": [], "order": None, "desc": None,
                "limit": None}
            pk = _exec_ast(sub_ast, tables,
                           broadcast_threshold).to_pandas()
            return _build_cum_probe(pk, fname, iop, oc)
        if corr:
            if pending is None:
                raise ValueError(
                    "correlated scalar subquery not supported here")
            items = sub_sel["items"]
            if (items is None or len(items) != 1
                    or not _has_agg(items[0][0])):
                raise ValueError(
                    "correlated scalar subquery must select exactly one "
                    "aggregate expression")
            ic, oc = corr[0]
            i = len(pending)
            kcol = f"__sck{i}"
            # compute each DISTINCT aggregate inside the item as its
            # own per-key column; after the left join, COUNT-kind
            # columns coalesce to 0 for unmatched keys (SQL: a scalar
            # COUNT over an empty match set is 0, not NULL), while
            # SUM/MIN/... stay NULL — then the item's surrounding
            # expression evaluates over the substituted columns
            aggs: list = []
            rewritten = _extract_aggs(items[0][0], aggs)
            sub_items = [(("col", ic), kcol)]
            subst = {}
            for j, (akey, afname, aargs) in enumerate(aggs):
                vcol = f"__scv{i}_{j}"
                if afname.endswith("!d"):
                    call = ("calld", afname[:-2], aargs)
                else:
                    call = ("call", afname, aargs)
                sub_items.append((call, vcol))
                if afname in ("count", "count!d"):
                    # the left join turns the int64 count into float64
                    # (NaN for unmatched keys) — coalesce to 0 and cast
                    # back so a scalar COUNT stays BIGINT
                    subst[akey] = ("cast", ("call", "coalesce",
                                            [("col", vcol), ("lit", 0)]),
                                   "bigint")
                else:
                    subst[akey] = ("col", vcol)
            sub_ast = {"selects": [dict(
                sub_sel,
                items=sub_items,
                where=_and_fold(inner_conjs),
                group=[("col", ic)], distinct=False)],
                "set_ops": [], "order": None, "desc": None,
                "limit": None}
            agg_ds = _exec_ast(sub_ast, tables, broadcast_threshold)
            import ray as _ray

            # the per-key aggregate is keys-sized (same driver-small
            # contract as IN (subquery)); materialize so the join
            # planner sees an in-memory build side and broadcasts it.
            # permissive: buckets whose key slice contained a NULL come
            # back float64 while NULL-free buckets stay int64 — promote
            # rather than fail (the pandas probe merge casts numeric
            # keys to a common dtype, exact to 2^53)
            tbl = pa.concat_tables(
                _ray.get(agg_ds.to_arrow_refs()),
                promote_options="permissive")
            pending.append((_ray.data.from_arrow(tbl), oc, kcol, "left"))

            def _subst_agg_cols(nd):
                if isinstance(nd, tuple):
                    if len(nd) == 2 and nd[0] == "col" and nd[1] in subst:
                        return subst[nd[1]]
                    return tuple(
                        _subst_agg_cols(x) if isinstance(x, (tuple, list))
                        else x for x in nd)
                if isinstance(nd, list):
                    return [
                        _subst_agg_cols(x) if isinstance(x, (tuple, list))
                        else x for x in nd]
                return nd

            return _subst_agg_cols(rewritten)
        sub_ast = {"selects": [sub_sel], "set_ops": [], "order": None,
                   "desc": None, "limit": 2}
        sub = _exec_ast(sub_ast, tables, broadcast_threshold).to_pandas()
        if len(sub) > 1:
            raise ValueError("scalar subquery returned more than one row")
        v = None if len(sub) == 0 else sub.iloc[0, 0]
        if v is not None and hasattr(v, "item"):
            v = v.item()
        return ("lit", v)
    if node[0] == "quant":
        # quantified comparison x op ANY/ALL (subquery): the subquery
        # side reduces to FOUR scalars (non-null min/max, row count,
        # non-null count) computed distributed per block — cheaper than
        # IN's value-set collect whatever the set size.  Lowering (SQL
        # 3VL): ANY is true iff the comparison holds against the best
        # element, false only when no element could satisfy it AND the
        # set is NULL-free; ALL is the dual.
        _opn, quant, sub_sel = node[1], node[3], node[4]
        e = _resolve_subqueries(node[2], tables, broadcast_threshold,
                                outer_names, pending)
        if _opn == "eq" and quant == "any":
            return _resolve_subqueries(("in_sub", node[2], sub_sel),
                                       tables, broadcast_threshold,
                                       outer_names, pending)
        if _opn == "ne" and quant == "all":
            return _resolve_subqueries(("not_in_sub", node[2], sub_sel),
                                       tables, broadcast_threshold,
                                       outer_names, pending)
        sub_ast = {"selects": [sub_sel], "set_ops": [], "order": None,
                   "desc": None, "limit": None}
        sds = _exec_ast(sub_ast, tables, broadcast_threshold)

        def blockstats(t: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc

            c = t.column(0)
            return pa.table({
                "mn": pa.array([_pc.min(c).as_py()]),
                "mx": pa.array([_pc.max(c).as_py()]),
                "n": pa.array([t.num_rows], pa.int64()),
                "nn": pa.array([len(c) - c.null_count], pa.int64())})

        parts = sds.map_batches(blockstats,
                                batch_format="pyarrow").to_pandas()
        n_rows = int(parts["n"].sum()) if "n" in parts.columns else 0
        nn = int(parts["nn"].sum()) if n_rows else 0
        if n_rows == 0:
            # empty set: ANY is vacuously FALSE, ALL vacuously TRUE —
            # strictly boolean, so NULL probes get the constant too
            return _always_false(e) if quant == "any" else _always_true(e)
        if nn == 0:
            # every element NULL: every comparison is NULL
            return ("case", [(_never(e), ("lit", True))], None)
        mn = parts["mn"].dropna().min()
        mx = parts["mx"].dropna().max()
        mn = mn.item() if hasattr(mn, "item") else mn
        mx = mx.item() if hasattr(mx, "item") else mx
        has_null = nn < n_rows
        if _opn in ("eq", "ne"):
            # eq/ALL: false iff some non-null element differs;
            # ne/ANY: true under exactly that condition
            diff = ("or", ("ne", e, ("lit", mn)), ("ne", e, ("lit", mx)))
            if quant == "any":  # ne/any
                return ("case", [(diff, ("lit", True))], None) \
                    if has_null else diff
            return ("case", [(diff, ("lit", False))], None) \
                if has_null else ("not", diff)
        if quant == "any":
            best = mn if _opn in ("gt", "ge") else mx
            cmp_t = (_opn, e, ("lit", best))
            return ("case", [(cmp_t, ("lit", True))], None) \
                if has_null else cmp_t
        worst = mx if _opn in ("gt", "ge") else mn
        neg_op = {"gt": "le", "ge": "lt", "lt": "ge", "le": "gt"}[_opn]
        fail = (neg_op, e, ("lit", worst))
        return ("case", [(fail, ("lit", False))], None) \
            if has_null else ("not", fail)
    if node[0] in ("in_sub", "not_in_sub"):
        # IN is set membership, so a DISTINCT in the value subquery
        # would only add an exchange: _semi_join dedups per block
        sub_ast = {"selects": [dict(node[2], distinct=False)],
                   "set_ops": [], "order": None, "desc": None,
                   "limit": None}
        e = _resolve_subqueries(node[1], tables, broadcast_threshold,
                                outer_names, pending)
        return _semi_join(_exec_ast(sub_ast, tables, broadcast_threshold),
                          e, pending, broadcast_threshold,
                          "not_in" if node[0] == "not_in_sub" else "in")
    return tuple(
        _resolve_subqueries(x, tables, broadcast_threshold, outer_names,
                            pending)
        if isinstance(x, (tuple, list)) else x for x in node
    )


def _schema_names_or_none(ds):
    """Column names of ``ds``, or None for a schema-less empty relation.
    Ray Data skips map_batches UDFs on zero-row blocks, so a pipeline
    over an empty stream can lose its schema entirely — consumers must
    treat such a dataset as 'empty, unknown columns' rather than crash
    on ``ds.schema()`` being None.

    COSTLY on derived pipelines: fetching a missing schema executes the
    plan prefix (a probe through a Sort pays the whole sort).  The
    planner therefore tracks output names symbolically (projection
    keys, join column algebra) and only falls back here when a name
    hint is genuinely unavailable."""
    s = ds.schema(fetch_if_missing=True)
    return list(s.names) if s is not None and s.names else None


def _hint_names(ds, sel) -> list:
    """Input column names for a select runner: the planner's symbolic
    hint (attached as ``sel['_in_names']`` after join tracking) when
    available — probing ``ds.schema()`` on a joined FROM executes the
    join prefix just to list columns — else the schema fetch."""
    h = sel.get("_in_names")
    return list(h) if h is not None else list(ds.schema().names)


def _sel_item_names(sel) -> "list[str] | None":
    """The output column names a select with an explicit item list
    produces — every select path (plain project, window, grouped,
    unnest) ends in ``select(**proj)`` keyed by these names."""
    if sel.get("items") is None:
        return None
    return [name or _expr_name(e, i)
            for i, (e, name) in enumerate(sel["items"])]


def _align_positional(left_names, other):
    """Rename ``other``'s output columns to ``left_names`` positionally
    (SQL set-op semantics).  Errors clearly on arity mismatch."""
    left_names = list(left_names)
    rnames = other.schema().names
    if len(rnames) != len(left_names):
        raise ValueError(
            f"set operation column-count mismatch: left has "
            f"{len(left_names)} columns, right has {len(rnames)}")
    if rnames == left_names:
        return other

    def rn(t: pa.Table, _names=left_names) -> pa.Table:
        return t.rename_columns(_names)

    return other.map_batches(rn, batch_format="pyarrow")


def _set_op(ds_a, ds_b, cols: list, op: str):
    """INTERSECT / EXCEPT with SQL's distinct set semantics, plus the
    INTERSECT ALL / EXCEPT ALL bag forms: tag each side, union,
    hash-bucket on ALL columns (identical rows co-locate), then emit
    per distinct row — intersect: one copy if present in both;
    except: one copy if left-only; intersect_all: min(n_left, n_right)
    copies; except_all: max(0, n_left - n_right) copies.  One exchange,
    no driver materialize.  Per-side counts are indicator-column sums,
    so the per-bucket groupby stays a vectorized two-column agg."""
    from ..stages.shuffle import bucketed_apply

    def tag(src):
        def fn(b: pa.Table) -> pa.Table:
            return b.append_column("__src", pa.array(
                np.full(b.num_rows, src, np.int8)))

        return fn

    both = ds_a.map_batches(tag(0), batch_format="pyarrow").union(
        ds_b.map_batches(tag(1), batch_format="pyarrow"))
    # the per-bucket frame takes a pandas round trip: a bucket whose
    # int column holds a NULL comes back float64 (NaN) while other
    # buckets stay int64 — inconsistent block schemas downstream.
    # Restore via pandas' nullable Int64 when BOTH sides declare ints
    # (same hazard _join_on handles).
    def _int_names(sch):
        if sch is None:  # a zero-row side has no schema to contradict
            return None
        return {n for n, t in zip(sch.names, sch.types)
                if isinstance(t, pa.DataType) and pa.types.is_integer(t)}

    ia = _int_names(ds_a.schema())
    ib = _int_names(ds_b.schema())
    int_cols = sorted((ia if ib is None else ib if ia is None
                       else ia & ib) or set())

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            # a schema-less zero-row piece has no columns to select
            return pd.DataFrame({
                c: pd.Series([], dtype="Int64" if c in int_cols
                             else "object") for c in cols})
        src = g["__src"].to_numpy()
        g = g.assign(__l=(src == 0).astype(np.int64),
                     __r=(src == 1).astype(np.int64))
        agg = g.groupby(cols, as_index=False, sort=False, dropna=False)[
            ["__l", "__r"]].sum()
        nl, nr = agg["__l"].to_numpy(), agg["__r"].to_numpy()
        if op == "intersect":
            reps = ((nl > 0) & (nr > 0)).astype(np.int64)
        elif op == "except":
            reps = ((nl > 0) & (nr == 0)).astype(np.int64)
        elif op == "intersect_all":
            reps = np.minimum(nl, nr)
        else:  # except_all
            reps = np.maximum(nl - nr, 0)
        out = agg.loc[agg.index.repeat(reps), cols]
        for c in int_cols:
            out[c] = out[c].astype("Int64")
        return out

    return bucketed_apply(both, cols, fn)


RECURSIVE_MAX_ROUNDS = 100


def _rename_positional(ds, names: list):
    """Rename a Dataset's columns to ``names`` positionally (CTE column
    list / set-op alignment)."""
    cur = ds.schema().names
    if len(cur) != len(names):
        raise ValueError(
            f"CTE column list has {len(names)} names, query produces "
            f"{len(cur)} columns")
    if cur == list(names):
        return ds

    def rn(t: pa.Table, _n=list(names)) -> pa.Table:
        return t.rename_columns(_n)

    return ds.map_batches(rn, batch_format="pyarrow")


def _ast_references(ast, name: str) -> bool:
    """Does any select in ``ast`` read table ``name`` (FROM, JOIN, or a
    nested derived table)?"""
    for sel in ast["selects"]:
        t = sel["table"]
        if t == name:
            return True
        if isinstance(t, tuple) and t[0] == "derived" \
                and _ast_references(t[1], name):
            return True
        for jt, *_rest in (sel["join"] or []):
            if jt == name:
                return True
    return False


def _exec_recursive_cte(name: str, colnames, ast, tables: dict,
                        broadcast_threshold: int):
    """Iterative distributed fixpoint for one recursive CTE.

    The LAST select of the body is the step arm (it must be the only
    arm referencing ``name``); everything before it is the base.  Each
    round binds ``name`` to the previous round's frontier and re-plans
    the step — semi-naive evaluation, so a round's work is proportional
    to the NEW rows, not the accumulated result.  ``UNION`` (distinct
    mode) subtracts already-seen rows through the tagged bucketed
    exchange (:func:`_set_op` EXCEPT) before testing emptiness, which is
    what terminates cyclic step relations.  Frontiers are materialized
    per round (object-store blocks; the driver holds refs + a count);
    the returned Dataset is the lazy union of all frontiers.

    The reference has no recursive SQL — its iterative fixpoints are
    bespoke (e.g. the relation closure loop, calcqts/calculate.go) —
    so this models them once, at the SQL surface."""
    from ..stages.shuffle import distinct as _distinct

    selects, set_ops = ast["selects"], ast["set_ops"]
    if ast.get("order") or ast.get("limit") is not None:
        raise ValueError(
            "ORDER BY / LIMIT inside a recursive CTE body unsupported")
    if len(selects) < 2:
        raise ValueError(
            "recursive CTE needs `base UNION [ALL] step` arms")
    for sop in set_ops:
        if sop not in ("union", "union_all"):
            raise ValueError(
                "recursive CTE arms must combine with UNION [ALL], "
                f"got {sop.upper()}")
    for sel in selects[:-1]:
        one = {"selects": [sel], "set_ops": [], "order": None,
               "desc": None, "limit": None, "offset": 0}
        if _ast_references(one, name):
            raise ValueError(
                "recursive reference must appear only in the final "
                "UNION arm")
    mode = set_ops[-1]
    base_ast = {"selects": selects[:-1], "set_ops": set_ops[:-1],
                "order": None, "desc": None, "limit": None, "offset": 0}
    base = _exec_ast(base_ast, tables, broadcast_threshold)
    if colnames:
        base = _rename_positional(base, colnames)
    names = base.schema().names
    if mode == "union":
        base = _distinct(base, names)
    frontier = base.materialize()
    acc = [frontier]
    seen = frontier  # union-mode only: all rows produced so far
    step_ast = {"selects": [selects[-1]], "set_ops": [], "order": None,
                "desc": None, "limit": None, "offset": 0}
    # semi-naive wants the STATIC step relations scanned once, not
    # re-executed from source every round (a lazy Dataset re-runs its
    # whole lineage each time the step re-plans): pin every table the
    # step arm references to object-store blocks before iterating
    static = dict(tables)
    for tname, tds in tables.items():
        if tname != name and _ast_references(step_ast, tname):
            static[tname] = tds.materialize()
    # UNION-mode dedup escape: while the accumulated result is small
    # (the common closure/hierarchy case — frontiers of rows, not
    # blocks), subtract seen rows driver-side in pandas instead of
    # paying a tagged bucketed exchange + two materializations per
    # round (~0.8 s/round of fixed latency at 32 cpus).  Falls back to
    # the exchange permanently once the seen set crosses the
    # threshold, or whenever a frame carries nulls (the exchange's
    # null-row set semantics stay authoritative there).
    SEEN_DRIVER_MAX = 100_000
    seen_df = None
    if mode == "union" and seen.count() <= SEEN_DRIVER_MAX:
        sd = _collect_small(seen).to_pandas()[list(names)]
        if not sd.isna().any().any():
            seen_df = sd.drop_duplicates()
    for _round in range(RECURSIVE_MAX_ROUNDS):
        if frontier.count() == 0:
            break
        bound = dict(static)
        bound[name] = frontier
        nxt = _exec_ast(step_ast, bound, broadcast_threshold).materialize()
        n_nxt = nxt.count()
        if n_nxt == 0:
            break  # empty rounds have no schema — stop before aligning
        nxt = _align_positional(names, nxt)
        if mode == "union":
            small = (seen_df is not None
                     and len(seen_df) + n_nxt <= SEEN_DRIVER_MAX)
            nxt_df = None
            if small:
                nxt_df = _collect_small(nxt).to_pandas()[list(names)]
                if nxt_df.isna().any().any():
                    nxt_df = None
            if nxt_df is not None:
                import ray as _ray

                nxt_df = nxt_df.drop_duplicates()
                m = nxt_df.merge(seen_df, on=list(names), how="left",
                                 indicator=True)
                nxt_df = m[m["_merge"] == "left_only"][list(names)]
                if not len(nxt_df):
                    break
                seen_df = pd.concat([seen_df, nxt_df],
                                    ignore_index=True)
                nxt = _ray.data.from_arrow(pa.Table.from_pandas(
                    nxt_df, preserve_index=False))
            else:
                seen_df = None  # crossed threshold / nulls: exchange
                nxt = _set_op(
                    _distinct(nxt, names), seen, names,
                    "except").materialize()
                if nxt.count() == 0:
                    break
            seen = seen.union(nxt)
        acc.append(nxt)
        frontier = nxt
    else:
        raise ValueError(
            f"recursive CTE {name!r} exceeded {RECURSIVE_MAX_ROUNDS} "
            "rounds without reaching a fixpoint")
    out = acc[0]
    for a in acc[1:]:
        out = out.union(a)
    return out


def parse_sql(sql: str, tables: dict,
              broadcast_threshold: int = 1_000_000) -> "ray.data.Dataset":  # noqa: F821
    """Parse a SQL string and execute it over the given name->Dataset
    map, returning a Dataset (the reference's ``Parse`` entry,
    altlex.go:501-509).

    ``WITH name AS (query) [, ...]`` common table expressions are
    supported by lowering onto the derived-table machinery: each CTE
    body plans once, in order, into a shadowed copy of the table map
    (later CTEs and the main query see earlier ones; the input map is
    never mutated).  A CTE referenced several times shares ONE planned
    Dataset lineage.

    ``WITH RECURSIVE name [(cols)] AS (base UNION [ALL] step)`` runs as
    an iterative distributed fixpoint (semi-naive evaluation): the base
    arm seeds the frontier, then each round re-plans the step arm with
    the CTE name bound to the PREVIOUS round's frontier only — never
    the accumulated result — and stops when a round produces no rows.
    ``UNION`` (without ALL) additionally subtracts already-seen rows
    each round via the tagged-exchange EXCEPT, which is what makes
    cyclic step relations terminate.  Every round's frontier is
    materialized into the object store (the driver holds block refs and
    one row-count int per round); the final result is the lazy union of
    the per-round frontiers, so the accumulated rows are never
    collected.  Bounded by ``RECURSIVE_MAX_ROUNDS``."""
    p = _Parser(_tokenize(sql))
    if p.accept("kw", "with"):
        recursive = bool(p.accept("kw", "recursive"))
        tables = dict(tables)
        while True:
            name = p.expect("ident")[1]
            colnames = None
            if p.accept("op", "("):
                colnames = [p.expect("ident")[1]]
                while p.accept("op", ","):
                    colnames.append(p.expect("ident")[1])
                p.expect("op", ")")
            p.expect("kw", "as")
            p.expect("op", "(")
            sub = p.parse_query(nested=True)
            p.expect("op", ")")
            if recursive and _ast_references(sub, name):
                tables[name] = _exec_recursive_cte(
                    name, colnames, sub, tables, broadcast_threshold)
            else:
                ds = _exec_ast(sub, tables, broadcast_threshold)
                if colnames:
                    ds = _rename_positional(ds, colnames)
                tables[name] = ds
            if not p.accept("op", ","):
                break
    ast = p.parse_query()
    return _exec_ast(ast, tables, broadcast_threshold)


def _exec_ast(ast, tables: dict, broadcast_threshold: int = 1_000_000):
    runs = []
    # symbolic output names per run (None = unknown, probe lazily):
    # avoids ds.schema() fetches that execute derived pipeline prefixes
    runs_names: list = []
    for sel in ast["selects"]:
        from_names: "list[str] | None" = None
        if isinstance(sel["table"], tuple) and sel["table"][0] == "derived":
            ds = _exec_ast(sel["table"][1], tables, broadcast_threshold)
        elif isinstance(sel["table"], tuple) and sel["table"][0] == "values":
            import ray

            _, rows, names = sel["table"]
            cols = {}
            for i, n in enumerate(names):
                vals = [r[i] for r in rows]
                # integer literals that fit INT32 type as int32 — DuckDB's
                # VALUES inference, so oracle dtypes line up
                if all(isinstance(v, int) and not isinstance(v, bool)
                       and -2**31 <= v < 2**31 for v in vals):
                    cols[n] = pa.array(vals, pa.int32())
                else:
                    cols[n] = pa.array(vals)
            ds = ray.data.from_arrow(pa.table(cols))
        else:
            ds = tables[sel["table"]]

        def _outer_names(_ds=ds, _sel=sel):
            out = set(_ds.schema().names)
            for jt, *_rest in (_sel["join"] or []):
                if isinstance(jt, str):
                    out |= set(tables[jt].schema().names)
            return out

        pending_sc: list = []
        if sel["where"] is not None:
            sel = dict(sel, where=_resolve_subqueries(
                sel["where"], tables, broadcast_threshold, _outer_names,
                pending_sc))
        if sel["items"] is not None:
            sel = dict(sel, items=[
                (_resolve_subqueries(e, tables, broadcast_threshold,
                                     _outer_names, pending_sc), name)
                for e, name in sel["items"]])
        if sel.get("having") is not None:
            # HAVING runs post-aggregation, so correlated decorrelation
            # (which LEFT-joins pre-aggregation columns) is out of
            # scope: pending=None restricts to eagerly-evaluated
            # (uncorrelated) subqueries, which resolve to literals
            sel = dict(sel, having=_resolve_subqueries(
                sel["having"], tables, broadcast_threshold,
                _outer_names, None))
        if sel.get("qualify") is not None:
            sel = dict(sel, qualify=_resolve_subqueries(
                sel["qualify"], tables, broadcast_threshold,
                _outer_names, None))
        if pending_sc:
            # decorrelated scalar subqueries: LEFT-join their per-key
            # aggregates onto this select's pipeline
            sel = dict(sel, join=(sel["join"] or []) + pending_sc)
        if sel["join"] is not None:
            joins = sel["join"]
            has_lateral = any(
                isinstance(j[0], tuple) and len(j[0]) == 3
                and j[0][0] == "lateral" for j in joins)
            needed = None
            if sel["items"] is not None and not has_lateral:
                # projection pushdown: only referenced columns (+ every
                # join key) enter the join exchanges
                needed = set()
                for e, _name in sel["items"]:
                    _collect_cols(e, needed)
                if sel["where"] is not None:
                    _collect_cols(sel["where"], needed)
                if sel.get("having") is not None:
                    _collect_cols(sel["having"], needed)
                if sel.get("group"):
                    for gnode in sel["group"]:
                        _collect_cols(gnode, needed)
                for jentry in joins:
                    if len(jentry) == 5:
                        _jt, lcs, rcs, _hw, resid = jentry
                        needed.update(lcs if not isinstance(lcs, str)
                                      else (lcs,))
                        needed.update(rcs if not isinstance(rcs, str)
                                      else (rcs,))
                        if resid is not None:
                            _collect_cols(resid, needed)
                    else:
                        _jt, lc, rc, _hw = jentry
                        needed.add(lc)
                        needed.add(rc)
                ds = ds.select_columns(
                    [c for c in ds.schema().names if c in needed])
            for join_idx, jentry in enumerate(joins):
                theta_resid = None
                if len(jentry) == 5:
                    jt, lcols, rcols, how, theta_resid = jentry
                else:
                    jt, lcols, rcols, how = jentry
                if isinstance(lcols, str):
                    lcols, rcols = (lcols,), (rcols,)
                lcols, rcols = list(lcols), list(rcols)
                # jt is a table NAME for user joins, a ("derived", ast,
                # alias) subquery, or an in-memory Dataset for
                # decorrelated-scalar-subquery joins
                derived_rhs = (isinstance(jt, tuple) and len(jt) == 3
                               and jt[0] == "derived")
                lateral_rhs = (isinstance(jt, tuple) and len(jt) == 3
                               and jt[0] == "lateral")
                inline_rhs = not isinstance(jt, str)
                lat_hidden: list = []
                if lateral_rhs:
                    rhs, lcols, rcols, lat_hidden = _exec_lateral(
                        jt[1], tables, broadcast_threshold)
                    if lcols and how == "cross":
                        # a correlated LATERAL under CROSS JOIN is a
                        # keyed join (each outer row matches only its
                        # own key's subquery rows)
                        how = "inner"
                elif derived_rhs:
                    rhs = _exec_ast(jt[1], tables, broadcast_threshold)
                else:
                    rhs = jt if inline_rhs else tables[jt]
                # side resolution by schema when an unqualified pair was
                # written join-side-first (ON g = k with g only in rhs)
                l_list = (from_names if from_names is not None
                          else list(ds.schema().names))
                l_have = set(l_list)
                r_order = list(rhs.schema().names)
                r_have = set(r_order)
                if lateral_rhs:
                    missing = [c for c in lcols if c not in l_have]
                    if missing:
                        raise ValueError(
                            f"LATERAL correlation column(s) {missing} "
                            "not found in the outer row")
                    dup = sorted((r_have - set(rcols)) & l_have)
                    if dup:
                        raise ValueError(
                            f"LATERAL output column(s) {dup} collide "
                            "with outer columns: alias them in the "
                            "subquery's SELECT list")
                for pi in range(len(lcols)):
                    lc, rc = lcols[pi], rcols[pi]
                    if (lc not in l_have and lc in r_have
                            and rc in l_have):
                        lcols[pi], rcols[pi] = rc, lc
                if theta_resid is not None and how not in ("inner",
                                                            "cross"):
                    raise ValueError(
                        "non-equi ON conditions are supported for "
                        "INNER/CROSS joins only")
                if theta_resid is not None:
                    # qualifiers collapse at parse time, so a residual
                    # referencing a column that exists on BOTH sides
                    # would silently evaluate left values (t1.x = t2.x
                    # becomes the tautology x = x) — refuse loudly,
                    # except for equi-key names whose sides are equal
                    # by the join condition itself
                    rc_cols: set = set()
                    _collect_cols(theta_resid, rc_cols)
                    safe = {lc for lc, rc in zip(lcols, rcols)
                            if lc == rc}
                    ambig = (rc_cols & l_have & r_have) - safe
                    if ambig:
                        raise ValueError(
                            f"ambiguous column(s) {sorted(ambig)} in a "
                            "non-equi ON condition: the name exists on "
                            "both join sides and qualifiers collapse "
                            "at parse time — alias one side's column "
                            "to a distinct name first")
                if needed is not None and not lateral_rhs:
                    rhs = rhs.select_columns(
                        [c for c in rhs.schema().names if c in needed])
                # predicate pushdown: WHERE conjuncts whose columns live
                # entirely on one side filter BEFORE the join (fewer
                # rows enter the exchange / probe); the residual runs
                # post-join.  Applied only for a SINGLE join — with a
                # chain, a later null-preserving join can resurface rows
                # a pushed filter would have removed.
                if sel["where"] is not None and len(joins) == 1:
                    l_names = set(ds.schema().names)
                    r_names = set(rhs.schema().names)
                    l_conjs, r_conjs, residual = [], [], []
                    for conj in _split_conjuncts(sel["where"]):
                        cc: set = set()
                        _collect_cols(conj, cc)
                        # a side's filter may push below the join only
                        # when that side is NOT null-preserved by the
                        # join (else it would drop rows the outer join
                        # must surface)
                        if (how in ("inner", "left") and cc
                                and cc <= l_names):
                            # overlap columns are fine here: join output
                            # carries LEFT values for shared names
                            l_conjs.append(conj)
                        elif (how in ("inner", "right") and cc
                              and cc <= r_names and not (cc & l_names)):
                            # right push additionally requires NO column
                            # shared with the left — a shared name
                            # evaluated right-side would use right
                            # values, but post-join the predicate sees
                            # left values
                            r_conjs.append(conj)
                        else:
                            residual.append(conj)
                    if l_conjs:
                        ds = Query(ds).where(
                            _compile_expr(_and_fold(l_conjs))).run()
                    if r_conjs:
                        rhs = Query(rhs).where(
                            _compile_expr(_and_fold(r_conjs))).run()
                    sel = dict(sel, where=_and_fold(residual))
                # plan: broadcast-hash-join when the build side is
                # small.  Probe count() ONLY for pure read / in-memory
                # sources (metadata-cheap); for derived pipelines
                # counting would execute them once just to pick a
                # strategy and then the join would execute them again —
                # default those to the shuffle join instead
                rhs_rows = None
                try:
                    src = jt if inline_rhs else tables[jt]
                    dag_kind = type(src._logical_plan.dag).__name__
                    if dag_kind in ("Read", "FromArrow", "FromPandas",
                                    "FromItems", "FromNumpy", "InputData"):
                        rhs_rows = src.count()
                except Exception:
                    rhs_rows = None
                # RIGHT/FULL can never broadcast: a map-side probe
                # cannot know which build rows went unmatched across
                # ALL batches
                if how == "cross" or not lcols:
                    # CROSS JOIN / pure-theta ON: bounded cartesian
                    ds = _cross_join(ds, rhs, broadcast_threshold)
                elif (how in ("inner", "left") and rhs_rows is not None
                        and rhs_rows <= broadcast_threshold):
                    ds = _broadcast_join(ds, rhs, lcols, rcols, how)
                else:
                    ds = _join_on(ds, rhs, lcols, rcols, how=how)
                if theta_resid is not None:
                    # theta conjuncts run as a post-join filter (exact
                    # for INNER/CROSS semantics)
                    ds = Query(ds).where(
                        _compile_expr(theta_resid)).run()
                if lateral_rhs and lat_hidden:
                    ds = ds.drop_columns(lat_hidden)
                # every join flavor's output is l + (r - overlap) in
                # order (merge suffix convention: shared names carry
                # LEFT values, right dupes are dropped) — track it so
                # later stages never probe the join pipeline's schema
                r_eff = (r_order if needed is None or lateral_rhs
                         else [c for c in r_order if c in needed])
                from_names = l_list + [c for c in r_eff
                                       if c not in l_have]
                if lateral_rhs and lat_hidden:
                    from_names = [c for c in from_names
                                  if c not in set(lat_hidden)]
            if pending_sc and sel["items"] is None:
                # SELECT *: synthetic semi-join / decorrelation columns
                # must not surface in the star expansion.  They are
                # still live in the resolved WHERE, which the plain
                # select applies BEFORE its projection — so defer the
                # drop to a post-projection on the final output
                keep = [c for c in (from_names if from_names is not None
                                    else list(ds.schema().names))
                        if not (c.startswith("__sj")
                                or c.startswith("__sc"))]
                sel = dict(sel, items=[(("col", c), c) for c in keep])
        if from_names is not None:
            # hand the join-tracked input names to the select runners
            # so their own schema lookups never execute the pipeline
            sel = dict(sel, _in_names=from_names)
        if (sel["items"] is not None and any(
                _has_win(e) for e, _ in sel["items"])) \
                or sel.get("qualify") is not None:
            if sel.get("rollup"):
                raise ValueError(
                    "GROUP BY ROLLUP/CUBE combined with window "
                    "functions or QUALIFY is not supported")
            out = _run_window_select(ds, sel)
            out_names = _sel_item_names(sel)
            if sel["distinct"]:
                from ..stages.shuffle import distinct as _distinct

                _dn = (out_names if out_names is not None
                       else _schema_names_or_none(out))
                if _dn is not None:
                    out = _distinct(out, _dn)
            runs.append(out)
            runs_names.append(out_names)
            continue
        if sel.get("group") or (
            sel["items"] is not None
            and any(_has_agg(e) for e, _ in sel["items"])
        ):
            out = (_run_rollup_select(ds, sel) if sel.get("rollup")
                   else _run_grouped_select(ds, sel))
            out_names = (None if sel.get("rollup")
                         else _sel_item_names(sel))
            if sel["distinct"]:
                from ..stages.shuffle import distinct as _distinct

                _dn = (out_names if out_names is not None
                       else _schema_names_or_none(out))
                if _dn is not None:
                    out = _distinct(out, _dn)
            runs.append(out)
            runs_names.append(out_names)
            continue
        if sel["items"] is not None and any(
                _has_unnest(e) for e, _ in sel["items"]):
            out = _run_unnest_select(ds, sel)
            out_names = _sel_item_names(sel)
            if sel["distinct"]:
                from ..stages.shuffle import distinct as _distinct

                _dn = (out_names if out_names is not None
                       else _schema_names_or_none(out))
                if _dn is not None:
                    out = _distinct(out, _dn)
            runs.append(out)
            runs_names.append(out_names)
            continue
        q = Query(ds)
        if sel["where"] is not None:
            q = q.where(_compile_expr(sel["where"]))
        if sel["items"] is not None:
            proj = {}
            for idx, (e, name) in enumerate(sel["items"]):
                proj[name or _expr_name(e, idx)] = _compile_expr(e)
            # SQL sorts BEFORE projecting: an ORDER BY column absent
            # from the SELECT list rides through as a hidden column
            # (single plain select only; DISTINCT + hidden order keys
            # is an error in SQL and stays one here)
            if (not sel["distinct"] and ast.get("order")
                    and len(ast["selects"]) == 1):
                in_names = (set(from_names) if from_names is not None
                            else set(_schema_names_or_none(ds) or []))
                for node in ast["order"]:
                    if (isinstance(node, tuple) and node[0] == "col"
                            and node[1] not in proj
                            and node[1] in in_names):
                        proj[f"__ob_{node[1]}"] = col(node[1])
            q = q.select(**proj)
        out = q.run()
        out_names = (list(proj.keys()) if sel["items"] is not None
                     else from_names)
        if sel["distinct"]:
            from ..stages.shuffle import distinct as _distinct

            _dn = (out_names if out_names is not None
                   else _schema_names_or_none(out))
            if _dn is not None:
                out = _distinct(out, _dn)
        runs.append(out)
        runs_names.append(out_names)
    ds = runs[0]
    ds_names = runs_names[0]
    set_ops = ast.get("set_ops") or ["union_all"] * (len(runs) - 1)
    for (other, onames), sop in zip(zip(runs[1:], runs_names[1:]), set_ops):
        lnames = (ds_names if ds_names is not None
                  else _schema_names_or_none(ds))
        rnames = (onames if onames is not None
                  else _schema_names_or_none(other))
        if rnames is None:
            # right side is a schema-less empty relation: UNION ALL and
            # EXCEPT [ALL] keep the left unchanged, UNION still dedups
            # it, INTERSECT [ALL] with nothing is nothing
            if sop == "union" and lnames is not None:
                from ..stages.shuffle import distinct as _distinct

                ds = _distinct(ds, lnames)
            elif sop in ("intersect", "intersect_all") \
                    and lnames is not None:
                ds = ds.limit(0)
            ds_names = lnames
            continue
        if lnames is None:
            # empty left: UNION [ALL] adopts the right side;
            # (empty) INTERSECT/EXCEPT x stays empty
            if sop == "union_all":
                ds = other
                ds_names = rnames
            elif sop == "union":
                from ..stages.shuffle import distinct as _distinct

                ds = _distinct(other, rnames)
                ds_names = rnames
            continue
        # SQL set operations align columns by POSITION, not name:
        # positionally rename the right side to the left's schema
        other = _align_positional(lnames, other)
        if sop == "union_all":
            ds = ds.union(other)
        elif sop == "union":
            # UNION without ALL deduplicates the accumulated result
            # (left-associative, sqlselect/sql.go)
            from ..stages.shuffle import distinct as _distinct

            ds = _distinct(ds.union(other), lnames)
        else:
            # INTERSECT / EXCEPT: distinct set semantics — tag each
            # side, co-locate identical rows via the bucketed exchange,
            # keep one copy of rows present in both (or left-only)
            ds = _set_op(ds, other, lnames, sop)
        ds_names = lnames
    if ds_names is None:
        ds_names = _schema_names_or_none(ds)
    if ds_names is None:
        # fully-void result (schema lost over an empty stream):
        # ORDER BY / LIMIT over an empty relation are no-ops
        return ds
    if ast["order"]:
        sort_cols, descs, synth = [], [], []
        nulls_spec = ast.get("nulls") or [None] * len(ast["order"])
        for i, node in enumerate(ast["order"]):
            if (isinstance(node, tuple) and node[0] == "lit"
                    and isinstance(node[1], int)
                    and not isinstance(node[1], bool)):
                # SQL ordinal: ORDER BY 1 names the first output column
                names = ds_names
                if not 1 <= node[1] <= len(names):
                    raise ValueError(
                        f"ORDER BY ordinal {node[1]} out of range")
                node = ("col", names[node[1] - 1])
            # an ORDER BY expression that equals a select item's
            # expression refers to that item's OUTPUT column (DuckDB:
            # ORDER BY COUNT(*) over a grouped select) — required for
            # aggregates, harmless and equivalent otherwise
            if not (isinstance(node, tuple) and node[0] == "col"):
                _items = (ast.get("items")
                          or (ast.get("selects") or [{}])[0].get("items")
                          or [])
                for j, (ie, iname) in enumerate(_items):
                    if ie == node:
                        node = ("col", iname or _expr_name(ie, j))
                        break
            if isinstance(node, tuple) and node[0] == "col":
                key = node[1]
                if key not in ds_names and f"__ob_{key}" in ds_names:
                    key = f"__ob_{key}"
            else:
                if _has_agg(node):
                    raise ValueError(
                        "ORDER BY aggregate expressions must appear in "
                        "the SELECT list")
                key = f"__ord{i}"
                synth.append((key, _compile_expr(node)))
            if nulls_spec[i] is not None:
                # explicit NULLS FIRST/LAST: an is-null indicator key
                # sorted ascending just before the value key places the
                # null block deterministically whatever the engine's
                # native null order is
                import pyarrow.compute as _pc

                ind = f"__nullord{i}"
                want_first = nulls_spec[i] == "first"
                synth.append((ind, Expr(
                    lambda t, _k=key, _f=want_first: (
                        _pc.invert(_pc.is_null(t.column(_k)))
                        if _f else _pc.is_null(t.column(_k))),
                    ind)))
                sort_cols.append(ind)
                descs.append(False)
            sort_cols.append(key)
            descs.append(ast["desc"][i])
        if synth:
            def add_sort_cols(t: pa.Table) -> pa.Table:
                for cname, expr in synth:
                    t = t.append_column(cname, expr(t))
                return t

            ds = ds.map_batches(add_sort_cols, batch_format="pyarrow")
        ds = ds.sort(sort_cols, descending=descs)
        # names are known symbolically (pre-sort names + synth keys) —
        # probing here would execute the whole sort just to list columns
        drop = [c for c, _e in synth] + [
            c for c in ds_names if c.startswith("__ob_")]
        if drop:
            ds = ds.drop_columns(drop)
    if ast["limit"] is not None:
        off = ast.get("offset") or 0
        if off:
            # OFFSET pages within a LIMITed (driver-small by contract)
            # result: take limit+offset rows in order, slice off the
            # head.  Block refs arrive in dataset order, so the slice
            # respects the ORDER BY.
            import ray as _ray

            tbl = pa.concat_tables(
                _ray.get(ds.limit(ast["limit"] + off).to_arrow_refs()),
                promote_options="default")
            return _ray.data.from_arrow(
                tbl.slice(off, ast["limit"]))
        ds = ds.limit(ast["limit"])
    return ds
