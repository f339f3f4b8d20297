"""SQL-ish query surface (reference sqlselect, SURVEY §2.7).

The reference embeds a SELECT...FROM...WHERE...ORDER BY engine (goyacc
grammar, no GROUP BY / LIMIT) that runs per-tile AFTER spatial pruning
(PackedDataStore.Filter -> simpleSelect, sqlselect/tables.go:232-277).
Here the same surface is a thin expression tree compiled to
pyarrow.compute kernels inside map_batches, over any Dataset — or over
a tiled output directory with manifest-driven partition pruning
(query_tiles), mirroring "prune partitions by bbox -> per-batch Arrow
compute".

Scalar function set mirrors sqlselect/functions.go: coalesce, nullif,
replace, char_length, substr, concat/||, arithmetic, typed comparisons,
LIKE (prefix/suffix/contains only — functions.go:277-374), BETWEEN, IN,
IS NULL, CASE WHEN, AND/OR/NOT, make_integer/make_float casts, numchar
(substring occurrence count, functions.go:52-67) and maxwidth (longest
split-segment byte width, functions.go:69-94).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def in_3vl(x, value_set: pa.Array, had_null: bool):
    """SQL three-valued IN of ``x`` against the null-free ``value_set``:
    a NULL probe yields NULL (pc.is_in says false), and a NULL in the
    member set (``had_null``) turns every non-match into NULL (x IN (1,
    NULL) is TRUE or NULL, never FALSE).  Under a bare WHERE both
    collapse to "filtered", but NOT / CASE composed over the result
    must see the NULL."""
    m = pc.is_in(x, value_set=value_set)
    m = pc.if_else(pc.is_null(x), pa.scalar(None, pa.bool_()), m)
    if had_null:
        m = pc.or_kleene(m, pa.scalar(None, pa.bool_()))
    return m


class Expr:
    def __init__(self, fn, name="expr"):
        self.fn = fn
        self.name = name

    def __call__(self, t: pa.Table):
        return self.fn(t)

    # -- arithmetic / comparison (functions.go:210-374) ---------------------
    def _bin(self, other, kernel, name):
        other = _wrap(other)
        return Expr(lambda t: kernel(self(t), other(t)), name)

    def __add__(self, o):
        return self._bin(o, pc.add, "add")

    def __sub__(self, o):
        return self._bin(o, pc.subtract, "sub")

    def __mul__(self, o):
        return self._bin(o, pc.multiply, "mul")

    def __truediv__(self, o):
        # SQL '/' is float division regardless of operand types
        # (DuckDB: 7 / 2 = 3.5); Arrow's raw divide would silently
        # truncate integer operands
        def kernel(a, b):
            return pc.divide(pc.cast(a, pa.float64()),
                             pc.cast(b, pa.float64()))

        return self._bin(o, kernel, "div")

    def idiv(self, o):
        # SQL '//': truncated division on integers (DuckDB -7 // 3
        # = -2) and plain division on floats (DuckDB 1.x observed:
        # -7.5 // 2 = -3.75) — exactly Arrow's type-preserving divide
        return self._bin(o, pc.divide, "idiv")

    def __mod__(self, o):
        # a % b == a - (a/b)*b with Arrow's truncating integer divide —
        # matches SQL's truncated-toward-zero modulo
        def kernel(a, b):
            return pc.subtract(a, pc.multiply(pc.divide(a, b), b))

        return self._bin(o, kernel, "mod")

    def __eq__(self, o):  # noqa: A003
        return self._bin(o, pc.equal, "eq")

    def __ne__(self, o):
        return self._bin(o, pc.not_equal, "ne")

    def __lt__(self, o):
        return self._bin(o, pc.less, "lt")

    def __le__(self, o):
        return self._bin(o, pc.less_equal, "le")

    def __gt__(self, o):
        return self._bin(o, pc.greater, "gt")

    def __ge__(self, o):
        return self._bin(o, pc.greater_equal, "ge")

    def __and__(self, o):
        return self._bin(o, pc.and_kleene, "and")

    def __or__(self, o):
        return self._bin(o, pc.or_kleene, "or")

    def __invert__(self):
        return Expr(lambda t: pc.invert(self(t)), "not")

    # -- bitwise (sql.y value_expression '&' / BR / '~', shifts) ------------
    def bitand(self, o):
        return self._bin(o, pc.bit_wise_and, "bitand")

    def bitor(self, o):
        return self._bin(o, pc.bit_wise_or, "bitor")

    def bitxor(self, o):
        return self._bin(o, pc.bit_wise_xor, "bitxor")

    def bitnot(self):
        return Expr(lambda t: pc.bit_wise_not(self(t)), "bitnot")

    def shiftleft(self, o):
        return self._bin(o, pc.shift_left, "shiftleft")

    def shiftright(self, o):
        return self._bin(o, pc.shift_right, "shiftright")

    # -- scalar functions ----------------------------------------------------
    def like(self, pattern: str):
        """Full SQL LIKE.  Patterns using only a leading/trailing %
        (the reference's surface, functions.go:335-374) keep the cheap
        specialized kernels; anything with ``_`` wildcards, interior %
        or escapes routes through pc.match_like (SQL semantics,
        NULL-propagating)."""
        simple = "_" not in pattern and "\\" not in pattern \
            and "%" not in pattern.strip("%")
        if simple:
            if pattern.startswith("%") and pattern.endswith("%") \
                    and len(pattern) >= 2:
                pat = pattern.strip("%")
                return Expr(lambda t: pc.match_substring(self(t), pat),
                            "like")
            if pattern.endswith("%"):
                pat = pattern[:-1]
                return Expr(lambda t: pc.starts_with(self(t), pat), "like")
            if pattern.startswith("%"):
                pat = pattern[1:]
                return Expr(lambda t: pc.ends_with(self(t), pat), "like")
            return Expr(lambda t: pc.equal(self(t), pattern), "like")
        return Expr(lambda t: pc.match_like(self(t), pattern), "like")

    def between(self, lo, hi):
        return (self >= lo) & (self <= hi)

    def isin(self, values):
        had_null = any(v is None for v in values)
        vs = pa.array([v for v in values if v is not None])
        return Expr(lambda t: in_3vl(self(t), vs, had_null), "in")

    def is_null(self):
        return Expr(lambda t: pc.is_null(self(t)), "isnull")

    def substr(self, start: int, length: int):
        """1-based SQL substr (functions.go:137-165), with DuckDB's edge
        semantics: a negative start anchors from the END of the string
        (Python-style), start 0 anchors one before the first character,
        and a negative length extends BACKWARD from the anchor. All
        cases compile to constant-bound slice kernels — the from-end
        anchor uses reverse -> slice -> reverse so per-row string
        lengths never reach Python."""
        if start >= 0:
            anchor = start - 1
            lo = max(min(anchor, anchor + length), 0)
            hi = max(max(anchor, anchor + length), 0)
            return Expr(
                lambda t: pc.utf8_slice_codeunits(self(t), lo, hi),
                "substr",
            )
        # start < 0: interval [len+start+min(0,length), len+start+max(0,length))
        # in forward coords == [-start-max(0,length), -start-min(0,length))
        # in reversed coords, which is constant per query
        lo_r = max(-start - max(0, length), 0)
        hi_r = max(-start - min(0, length), 0)
        return Expr(
            lambda t: pc.utf8_reverse(
                pc.utf8_slice_codeunits(pc.utf8_reverse(self(t)), lo_r, hi_r)),
            "substr",
        )

    def char_length(self):
        return Expr(lambda t: pc.cast(pc.utf8_length(self(t)), pa.int64()), "len")

    def replace(self, old: str, new: str):
        return Expr(lambda t: pc.replace_substring(self(t), old, new), "replace")

    def concat(self, *others):
        parts = [self] + [_wrap(o) for o in others]
        return Expr(
            lambda t: pc.binary_join_element_wise(*[p(t) for p in parts], ""),
            "concat",
        )

    def coalesce(self, *others):
        parts = [self] + [_wrap(o) for o in others]
        return Expr(lambda t: pc.coalesce(*[p(t) for p in parts]), "coalesce")

    def nullif(self, value):
        """NULLIF(a, b) with b any expression (SQL: NULL where a = b,
        else a; a NULL comparison is not-equal, matching DuckDB)."""
        other = _wrap(value)

        def fn(t):
            a = self(t)
            eq = pc.equal(a, other(t))
            eq = pc.fill_null(eq, False)
            return pc.if_else(eq, pa.scalar(None, _arr_type(a)), a)

        return Expr(fn, "nullif")

    def numchar(self, sub: str):
        """Non-overlapping occurrence count of ``sub`` (reference
        numchar, functions.go:52-67 — Go strings.Count semantics)."""
        return Expr(
            lambda t: pc.cast(pc.count_substring(self(t), pattern=sub),
                              pa.int64()),
            "numchar",
        )

    def maxwidth(self, sep: str = "\n"):
        """Byte width of the longest ``sep``-split segment (reference
        maxwidth, functions.go:69-94 — Go len() counts bytes).  The
        per-row max runs as one reduceat over the split's flat value
        buffer — no Python loop over rows."""
        if sep == "":
            raise ValueError("maxwidth() separator must be non-empty")

        def fn(t):
            import numpy as np

            arr = self(t)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            split = pc.split_pattern(arr, pattern=sep)
            lens = pc.binary_length(split.values).to_numpy(
                zero_copy_only=False).astype(np.int64, copy=False)
            offs = split.offsets.to_numpy(zero_copy_only=False)
            valid = np.asarray(pc.is_valid(arr), dtype=bool)
            out = np.zeros(len(arr), dtype=np.int64)
            starts = offs[:-1][valid]
            if starts.size:
                # null rows contribute zero list elements, so
                # consecutive valid starts bound each row's segments
                out[valid] = np.maximum.reduceat(lens, starts)
            return pa.array(out, pa.int64(), mask=~valid)

        return Expr(fn, "maxwidth")

    def make_integer(self):
        # DuckDB CAST(DOUBLE AS BIGINT) rounds half to even (2.5 -> 2,
        # 1.5 -> 2, -2.5 -> -2; DECIMAL literals differ but this
        # front-end's floats are all DOUBLE); Arrow's safe cast refuses
        # any fractional value outright
        def kernel(a):
            t = getattr(a, "type", None)
            if t is not None and pa.types.is_floating(t):
                a = pc.round(a, round_mode="half_to_even")
            return pc.cast(a, pa.int64())

        return Expr(lambda t: kernel(self(t)), "make_integer")

    def make_float(self):
        return Expr(lambda t: pc.cast(self(t), pa.float64()), "make_float")

    def make_string(self):
        # Arrow's int/float -> string cast formats like SQL's CAST AS
        # VARCHAR (no padding, minimal digits)
        return Expr(lambda t: pc.cast(self(t), pa.string()), "make_string")


def _arr_type(a):
    return a.type


def _wrap(v):
    if isinstance(v, Expr):
        return v
    return Expr(lambda t, v=v: pa.scalar(v) if not isinstance(v, pa.Scalar) else v,
                "lit")


def col(name: str) -> Expr:
    return Expr(lambda t: t.column(name), name)


def lit(v) -> Expr:
    return _wrap(v)


def case_when(branches, default=None) -> Expr:
    """CASE WHEN c1 THEN v1 ... ELSE d END (exprs.go:243-289)."""

    def fn(t):
        out = _wrap(default)(t) if default is not None else None
        for cond, val in reversed(branches):
            v = _wrap(val)(t)
            # SQL: a NULL WHEN condition does NOT match (falls through
            # to the next branch / ELSE); pc.if_else would propagate
            # the null into the result instead
            c = pc.fill_null(cond(t), False)
            if out is None:
                out = pc.if_else(c, v, pa.scalar(None, _arr_type(v)))
            else:
                out = pc.if_else(c, v, out)
        return out

    return Expr(fn, "case")


class Query:
    """simpleSelect: filter rows -> project -> sort [-> union -> limit]
    (sqlselect/tables.go:232-277 + UNION :53-75)."""

    def __init__(self, ds):
        self.ds = ds
        self._where = None
        self._select: dict[str, Expr] | None = None
        self._order = None
        self._desc = None
        self._limit = None

    def where(self, expr: Expr) -> "Query":
        self._where = expr
        return self

    def select(self, **projections: Expr) -> "Query":
        self._select = projections
        return self

    def order_by(self, *cols, descending=False) -> "Query":
        self._order = list(cols)
        self._desc = descending
        return self

    def limit(self, n: int) -> "Query":
        self._limit = n
        return self

    def union(self, other: "Query") -> "Query":
        q = Query(self.run().union(other.run()))
        return q

    def run(self):
        ds = self.ds
        where = self._where
        select = self._select

        if where is not None or select is not None:
            def fn(t: pa.Table) -> pa.Table:
                if where is not None:
                    m = where(t)
                    if isinstance(m, pa.Scalar):
                        # constant predicate (e.g. a ROLLUP level's
                        # HAVING GROUPING(..) literal): broadcast
                        m = pa.array([bool(m.as_py())] * t.num_rows)
                    elif isinstance(m, (bool, np.bool_)):
                        m = pa.array([bool(m)] * t.num_rows)
                    t = t.filter(m)
                if select is not None:
                    cols = {}
                    for name, e in select.items():
                        v = e(t)
                        if isinstance(v, pa.Scalar):
                            v = pa.array([v.as_py()] * t.num_rows)
                        cols[name] = v
                    t = pa.table(cols)
                return t

            ds = ds.map_batches(fn, batch_format="pyarrow")
        if self._order:
            ds = ds.sort(self._order, descending=self._desc)
        if self._limit is not None:
            ds = ds.limit(self._limit)
        return ds


def query_tiles(out_dir: str, loctest, columns=None) -> Query:
    """Reference execution model: SQL after spatial partition pruning."""
    from .spatial_filter import read_tiles_pruned

    ds, _ = read_tiles_pruned(out_dir, loctest, columns=columns)
    return Query(ds)
