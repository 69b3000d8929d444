"""Deterministic artifact serialization.

JSON is the exact format: every rational is a ``"num/den"`` string and
field order is fixed, so identical configurations produce byte-identical
files.  OBJ and PLY are lossy viewer exports and say so in a banner
comment; timestamps never enter payload files.

Every artifact kind and every shape nested in one is declared once, as a
table of ``(json key, getter, field type)`` in output order.  A field type
is a ``(write, read)`` pair of functions, and ``read(v, parsed)`` takes
only its own JSON type: anything else is a TypeError or ValueError.
``parsed`` is the one str -> Fraction memo that ``load_artifact`` makes
per call and every reader passes down.  The same table
writes an artifact and reads it back, so no field is read any other way.
A polyline's vertices are read whole when every row is three strings: the
strings are parsed once each and the vertices go straight to the curve's
integer form; any other array is read point by point, which raises each
error in document order.

``dump_json`` writes ``json.dumps(obj, indent=1, ensure_ascii=False)``
plus a newline through one small writer that calls the stock encoder's C
string escaper: before Python 3.13 the stock encoder runs in pure Python
whenever an indent is given.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring
from math import gcd, lcm
from operator import attrgetter as attr
from operator import itemgetter as item

from .geometry import Cube, frac
from .invariants import determinant, project, tricolorings
from .necklace import Necklace, Pearl
from .polyline import ClosedPolyline3, IntegerForm
from .squareflake import SquareflakeStage
from .ternary import AxisSegment
from .wildknot import Approximant, KnotAssignment, LedgerEntry

SCHEMA = "v1"

LOSSY_BANNER = "lossy decimal export; exact rationals live in the JSON artifact"

_ABSENT = object()  # a field the JSON object leaves out


def rat(x) -> str:
    f = frac(x)
    return f"{f.numerator}/{f.denominator}"


def _ratio(c: int, scale: int) -> str:
    """``rat`` of c / scale, formed on ints."""
    g = gcd(c, scale)
    return f"{c // g}/{scale // g}"


def _expect(value, types, what):
    """``value`` when its exact JSON type is one of ``types`` (so a bool is
    never an integer)."""
    if type(value) in types:
        return value
    if value is _ABSENT:
        raise ValueError(f"missing, expected {what}")
    raise TypeError(f"expected {what}, got {reprlib.repr(value)}")


# --- field types -------------------------------------------------------------

def _same(x):
    return x


def _read_rational(v, parsed):
    """A rational read from a "num/den" string or an int; each distinct
    string is parsed once per ``parsed``, the caller's str -> Fraction
    memo, which keeps only a parse that succeeded."""
    if type(v) is not str:
        return frac(_expect(v, (int,), "a rational"))
    x = parsed.get(v)
    if x is None:
        x = parsed[v] = frac(v)
    return x


RATIONAL = (rat, _read_rational)
INTEGER = (_same, lambda v, parsed: _expect(v, (int,), "an integer"))
BOOLEAN = (_same, lambda v, parsed: _expect(v, (bool,), "a boolean"))
STRING = (_same, lambda v, parsed: _expect(v, (str,), "a string"))


def array(field, length=None):
    """A JSON array of ``field`` values, of exactly ``length`` when given;
    read as a tuple."""
    write_item, read_item = field

    def write(xs):
        return [write_item(x) for x in xs]

    def read(v, parsed):
        _expect(v, (list,), "an array")
        if length is not None and len(v) != length:
            raise ValueError(f"expected an array of {length}, got {len(v)} items")
        return tuple(map(read_item, v, repeat(parsed)))

    return write, read


def record(build, fields, kind=None):
    """A JSON object of ``fields``, read back as ``build(*values)`` in table
    order.  With ``kind`` it opens with the ``schema``/``kind`` header, which
    reading requires.  A field's read error names the field's key."""

    def write(obj):
        out = {"schema": SCHEMA, "kind": kind} if kind else {}
        for key, get, (write_field, _) in fields:
            value = write_field(get(obj))
            if value is not _ABSENT:
                out[key] = value
        return out

    def read(v, parsed):
        _expect(v, (dict,), "an object")
        if kind and v.get("schema") != SCHEMA:
            raise ValueError(f"expected schema {SCHEMA!r}, got {reprlib.repr(v.get('schema'))}")
        if kind and v.get("kind") != kind:
            raise ValueError(f"expected kind {kind!r}, got {reprlib.repr(v.get('kind'))}")
        values = []
        try:
            for key, _, (_, read_field) in fields:
                values.append(read_field(v.get(key, _ABSENT), parsed))
        except (TypeError, ValueError) as e:
            raise type(e)(f"{key}: {e}") from None
        return build(*values)

    return write, read


def optional(field):
    """``field``, left out when its value is None and None when left out."""
    write_field, read_field = field
    return (lambda x: _ABSENT if x is None else write_field(x),
            lambda v, parsed: None if v is _ABSENT else read_field(v, parsed))


# --- shapes ------------------------------------------------------------------

POINT = array(RATIONAL, 3)
POINTS = array(POINT)


def _write_marks(marks):
    return {k: v if isinstance(v, int) else POINTS[0](v) for k, v in sorted(marks.items())}


def _read_marks(v, parsed):
    """Each mark is an integer or an array of points."""
    return {k: (POINTS if type(x) is list else INTEGER)[1](x, parsed) for k, x in _expect(v, (dict,), "an object").items()}


MARKS = (_write_marks, _read_marks)

SEGMENT = record(AxisSegment, [
    ("axis", attr("axis"), INTEGER),
    ("fixed", attr("fixed"), array(RATIONAL, 2)),
    ("lo", attr("lo"), RATIONAL),
    ("hi", attr("hi"), RATIONAL),
])


def _cube(corner, side) -> Cube:
    """The cube of a rational corner and side, on ints over the lcm of their denominators."""
    (x, dx), (y, dy), (z, dz), (s, ds) = map(Fraction.as_integer_ratio, (*corner, side))
    scale = lcm(dx, dy, dz, ds)
    return Cube(scale, (x * (scale // dx), y * (scale // dy), z * (scale // dz)), s * (scale // ds))


# written from the cube's ints as ``POINT`` and ``RATIONAL`` write its values
CUBE = record(_cube, [
    ("corner", lambda q: [_ratio(c, q.scale) for c in q.corner], (_same, POINT[1])),
    ("side", lambda q: _ratio(q.side, q.scale), (_same, RATIONAL[1])),
])

LEDGER_ENTRY = record(LedgerEntry, [
    ("stage", attr("stage"), INTEGER),
    ("index", attr("index"), INTEGER),
    ("site_kind", attr("kind"), STRING),
    ("knot", attr("knot"), STRING),
    ("nontrivial", attr("nontrivial"), BOOLEAN),
    ("mirror", attr("mirror"), BOOLEAN),
    ("spliced", attr("spliced"), BOOLEAN),
    ("cube", attr("cube"), CUBE),
    ("summand_det", attr("summand_det"), INTEGER),
])

# one ((stage, index), (knot, mirror)) item of KnotAssignment.entries
ASSIGNMENT_ENTRY = record(lambda q, i, knot, mirror: ((q, i), (knot, mirror)), [
    ("stage", lambda e: e[0][0], INTEGER),
    ("index", lambda e: e[0][1], INTEGER),
    ("knot", lambda e: e[1][0], STRING),
    ("mirror", lambda e: e[1][1], BOOLEAN),
])

PEARL = record(Pearl, [
    ("center", attr("center"), POINT),
    ("radius_sq", attr("radius_sq"), RATIONAL),
    ("word", attr("word"), array(INTEGER)),
])
PEARLS = array(PEARL)

# an iterated generation, read as (generation, pearls)
GENERATION = record(lambda g, pearls: (g, pearls), [
    ("generation", attr("generation"), INTEGER),
    ("pearls", attr("pearls"), PEARLS),
])


# --- artifact kinds ----------------------------------------------------------

def _write_integer_points(form):
    """The points of an integer form (scale, points) as ``POINTS`` writes
    them, each distinct coordinate c once: c / scale in lowest terms."""
    scale, points = form
    text = {c: _ratio(c, scale) for c in {c for p in points for c in p}}
    return [[text[c] for c in p] for p in points]


def _parse_points(v, parsed):
    """(the strings in document order, str -> Fraction of each distinct one)
    when ``v`` is an array of 3-string arrays whose strings all parse, each
    parsed once through ``parsed``, the caller's memo; None for any other
    input.  The shape and the leaf types are checked once over the whole
    array."""
    if type(v) is not list or set(map(type, v)) != {list} or set(map(len, v)) != {3}:
        return None
    flat = list(chain.from_iterable(v))
    if set(map(type, flat)) != {str}:
        return None
    distinct = set(flat)
    try:
        for s in distinct.difference(parsed):
            parsed[s] = frac(s)
    except (TypeError, ValueError):
        return None
    return flat, {s: parsed[s] for s in distinct}


def _read_integer_points(v, parsed):
    """The integer form of an array of points, read straight from its
    strings: the lcm of the distinct values' denominators is the scale, and
    the points are formed on ints, with no Fraction vertex.  Whatever
    ``_parse_points`` does not take whole is read point by point by
    ``POINTS``, which raises each error in document order."""
    strings = _parse_points(v, parsed)
    if strings is None:
        flat = list(chain.from_iterable(POINTS[1](v, parsed)))
        values = {x: x for x in flat}
    else:
        flat, values = strings
    scale = lcm(*{x.denominator for x in values.values()})
    num = {s: x.numerator * (scale // x.denominator) for s, x in values.items()}
    return IntegerForm(scale, tuple(zip(*[map(num.__getitem__, flat)] * 3)))


POLYLINE = record(ClosedPolyline3, [
    ("vertices", attr("integer_form"), (_write_integer_points, _read_integer_points)),
    ("marks", attr("marks"), MARKS),
], "polyline")

SQUAREFLAKE = record(SquareflakeStage, [
    ("m", attr("m"), INTEGER),
    ("polyline", attr("polyline"), POLYLINE),
    ("replaced", attr("replaced"), array(record(lambda seg, path: (seg, path), [
        ("removed", item(0), SEGMENT),
        ("path", item(1), POINTS),
    ]))),
], "squareflake")

APPROXIMANT = record(lambda m, stage, poly, ledger: Approximant(m, poly, ledger, stage), [
    ("m", attr("m"), INTEGER),
    ("sponge_stage", attr("sponge_stage"), INTEGER),
    ("polyline", attr("polyline"), POLYLINE),
    ("ledger", attr("ledger"), array(LEDGER_ENTRY)),
], "approximant")

ASSIGNMENT = record(lambda stage, default, entries: KnotAssignment(stage, dict(entries), default), [
    ("stage", attr("stage"), INTEGER),
    ("default", attr("default"), STRING),
    ("entries", lambda a: sorted(a.entries.items()), array(ASSIGNMENT_ENTRY)),
], "assignment")


def _necklaces(n, pearls, knot, iterated):
    base = Necklace(pearls, knot, n)
    if iterated is None:
        return base, None
    generation, pearls = iterated
    return base, Necklace(pearls, knot, n, generation=generation)


# a (generation-0 necklace, iterated necklace or None) pair
NECKLACE = record(_necklaces, [
    ("n", lambda pair: pair[0].n, INTEGER),
    ("pearls", lambda pair: pair[0].pearls, PEARLS),
    ("knot", lambda pair: pair[0].knot, POLYLINE),
    ("iterated", item(1), optional(GENERATION)),
], "necklace")

KINDS = {"polyline": POLYLINE, "squareflake": SQUAREFLAKE, "approximant": APPROXIMANT, "assignment": ASSIGNMENT,
         "necklace": NECKLACE}

polyline_json = POLYLINE[0]
segment_json = SEGMENT[0]
squareflake_json = SQUAREFLAKE[0]
approximant_json = APPROXIMANT[0]
assignment_json = ASSIGNMENT[0]


def necklace_json(base: Necklace, iterated: Necklace | None = None) -> dict:
    """Generation-0 necklace, optionally with one iterated generation."""
    if base.generation != 0:
        raise ValueError("necklace artifacts store the generation-0 necklace")
    return NECKLACE[0]((base, iterated))


def _indented(v, nl: str) -> str:
    """``v`` as ``json.dumps(v, indent=1, ensure_ascii=False)`` writes it at
    the depth whose lines start with ``nl`` (a newline and the indent).
    Strings go through ``encode_basestring``, the C function the stock
    encoder calls, and ints through ``int.__repr__``; a list of strings is
    one join, and so is a list of string lists of one length (points).
    Dicts with str keys, lists, tuples, str, int, bool and None are
    written; anything else is a TypeError."""
    t = type(v)
    if t is str:
        return encode_basestring(v)
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = nl + " "
        types = set(map(type, v))
        if types == {str}:
            return "[" + inner + ("," + inner).join(map(encode_basestring, v)) + nl + "]"
        if types == {list} and v[0] and len(set(map(len, v))) == 1:
            flat = list(chain.from_iterable(v))
            if set(map(type, flat)) == {str}:
                leaf = inner + " "
                rows = map(("," + leaf).join, zip(*[map(encode_basestring, flat)] * len(v[0])))
                return "[" + inner + "[" + leaf + (inner + "]," + inner + "[" + leaf).join(rows) + inner + "]" + nl + "]"
        return "[" + inner + ("," + inner).join([_indented(x, inner) for x in v]) + nl + "]"
    if t is dict:
        if not v:
            return "{}"
        keys = set(map(type, v)) - {str}
        if keys:
            raise TypeError(f"keys must be str, not {min(k.__name__ for k in keys)}")
        inner = nl + " "
        items = []
        for k, x in v.items():
            t = type(x)
            if t is str:
                items.append(encode_basestring(k) + ": " + encode_basestring(x))
            elif t is int:
                items.append(encode_basestring(k) + ": " + int.__repr__(x))
            elif t is bool:
                items.append(encode_basestring(k) + (": true" if x else ": false"))
            else:
                items.append(encode_basestring(k) + ": " + _indented(x, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    raise TypeError(f"cannot write {t.__name__} as JSON")


def dump_json(obj: dict) -> str:
    """``json.dumps(obj, indent=1, ensure_ascii=False) + "\\n"``, byte for
    byte, for the values the tables and the CLI write."""
    return _indented(obj, "\n") + "\n"


def load_artifact(text: str):
    """(kind, object) of an artifact; ValueError for any malformed input."""
    try:
        d = json.loads(text)
    except RecursionError:
        raise ValueError("artifact nests too deeply for the JSON parser") from None
    if type(d) is not dict:
        raise ValueError("artifact is not a JSON object")
    kind = d.get("kind")
    if type(kind) is not str or kind not in KINDS:
        raise ValueError(f"unknown artifact kind: {reprlib.repr(kind)}")
    try:
        return kind, KINDS[kind][1](d, {})
    except TypeError as e:
        raise ValueError(f"malformed {kind} artifact: {e}") from None


# --- lossy viewer exports ----------------------------------------------------

def polyline_obj(p: ClosedPolyline3) -> str:
    """OBJ text of the curve, each distinct coordinate written once from its
    integer form: int true division is correctly rounded, as
    ``Fraction.__float__`` is, so the text is that of the Fraction values."""
    scale, points = p.integer_form
    text = {c: repr(c / scale) for c in {c for q in points for c in q}}
    lines = [f"# {LOSSY_BANNER}"]
    lines += ["v " + " ".join(map(text.__getitem__, q)) for q in points]
    idx = " ".join(str(i + 1) for i in range(len(points)))
    lines.append(f"l {idx} 1")  # closed loop repeats the first index
    return "\n".join(lines) + "\n"


def points_ply(points) -> str:
    pts = [tuple(frac(c) for c in p) for p in points]
    header = [
        "ply",
        "format ascii 1.0",
        f"comment {LOSSY_BANNER}",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    body = [" ".join(repr(float(c)) for c in p) for p in pts]
    return "\n".join(header + body) + "\n"


def invariants_csv(p: ClosedPolyline3) -> str:
    """CSV of the determinant and tricoloring count of the curve's diagram along (0, 0, 1)."""
    d = project(p, (0, 0, 1))
    return f"invariant,value\ndeterminant,{determinant(d)}\ntricolorings,{tricolorings(d)}\n"
