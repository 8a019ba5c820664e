"""Text and JSON input formats for ideals and polytopes.

Grammar for ideals: generators separated by commas; a generator is a
'*'-separated list of factors `x<i>` or `x<i>^<n>`, with aliases x, y, z, w
for the first four variables; `1` is the unit generator.  The ambient
dimension is the largest variable index seen unless given explicitly,
and at most ideals.MAX_DIM either way.

Each generator is split on '*' and each piece matched once, so a syntax
error is reported at the offset of the piece, or of the text after its
factor, where it is found; a piece that ends in a bare '^' after its factor
is a missing exponent, reported at the '^'.
"""

from __future__ import annotations

import re

from .errors import IdealParseError
from .ideals import MAX_DIM, _check_dim, minimalize

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}
_TOKEN = re.compile(r"\s*(?:(?P<var>x\d+|[xyzw])(?:\s*\^\s*(?P<exp>\d+))?"
                    r"|(?P<one>1)|(?P<zero>0))(?:\s*(?P<caret>\^)\s*$)?")


def _read_int(digits, what, at):
    """int(digits), or an IdealParseError naming what at offset at when
    they are more digits than int() reads."""
    try:
        return int(digits)
    except ValueError as ex:
        raise IdealParseError(f"{what} is too long: {ex}", at) from None


def _parse_generator(text, offset, dim):
    """One monomial -> dict var_index -> exponent, empty for the unit.
    Each '*'-separated piece is matched once against _TOKEN; an error is
    reported at the offset of what is wrong in it, an exponent or index
    too long to read included.  A variable of index above dim, unless dim
    is None, or above MAX_DIM is an error at its offset."""
    powers = {}
    pieces = text.split("*")
    start = offset
    for n, piece in enumerate(pieces, 1):
        m = _TOKEN.match(piece)
        if not m:
            if not piece and n == len(pieces):
                raise IdealParseError("empty generator", offset)
            raise IdealParseError("expected a variable factor", start)
        if m.group("zero"):
            raise IdealParseError("the zero monomial cannot generate",
                                  start + m.start("zero"))
        var = m.group("var")
        if var:
            at = start + m.start("var")
            index = (_ALIASES[var] if var in _ALIASES
                     else _read_int(var[1:], "variable index", at))
            if index < 1:
                raise IdealParseError(
                    f"variable index must be >= 1, got {var}", at)
            if dim is not None and index > dim:
                raise IdealParseError(
                    f"variable index {index} exceeds dimension {dim}", at)
            if index > MAX_DIM:
                raise IdealParseError(f"variable index {index} exceeds "
                                      f"the dimension cap {MAX_DIM}", at)
            exp = m.group("exp")
            powers[index] = powers.get(index, 0) + (_read_int(
                exp, "exponent", start + m.start("exp")) if exp else 1)
        if m.group("caret"):
            raise IdealParseError("expected an exponent after '^'",
                                  start + m.start("caret"))
        if piece[m.end():].strip():
            raise IdealParseError("expected '*' between factors",
                                  start + m.end())
        start += len(piece) + 1
    return powers


def parse_ideal(text, dim=None):
    """Parse the generator grammar into a minimalized monomial ideal.  A
    dim above MAX_DIM is a ValueError, raised before any point is built."""
    if dim is not None:
        _check_dim(dim)
    if not text.strip():
        raise IdealParseError("empty input", 0)
    gens = []
    offset = 0
    for chunk in text.split(","):
        gens.append(_parse_generator(chunk, offset, dim))
        offset += len(chunk) + 1
    if dim is None:
        dim = max((i for g in gens for i in g), default=1)
    points = [tuple(g.get(i + 1, 0) for i in range(dim)) for g in gens]
    return minimalize(points, dim)


def render_ideal(I):
    """Inverse of parse_ideal on canonical ideals: parse(render(I)) == I."""
    names = (_ALIASES if I.dim <= len(_ALIASES)
             else [f"x{i + 1}" for i in range(I.dim)])

    def monomial(g):
        parts = []
        for name, e in zip(names, g):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    return ", ".join(monomial(g) for g in I.gens)


def parse_points(text, dim=None):
    """Semicolon-separated integer points, e.g. '2,0; 0,3'.  Error
    positions are the offset of the offending point in `text`."""
    points = []
    offset = 0
    for chunk in text.split(";"):
        start = offset + len(chunk) - len(chunk.lstrip())
        offset += len(chunk) + 1
        chunk = chunk.strip()
        if not chunk:
            raise IdealParseError("empty point", start)
        try:
            p = tuple(int(v) for v in chunk.split(","))
        except ValueError as ex:
            raise IdealParseError(f"bad point {chunk!r}: {ex}",
                                  start) from None
        if points and len(p) != len(points[0]):
            raise IdealParseError("points of mixed dimension", start)
        if dim is not None and len(p) != dim:
            raise IdealParseError(
                f"points have dimension {len(p)}, expected {dim}", start)
        points.append(p)
    return points


def _document_ints(values):
    """A JSON list of integers, possibly as decimal strings; a float or a
    boolean is an error, not truncated."""
    if not isinstance(values, list) or any(isinstance(v, (bool, float))
                                           for v in values):
        raise TypeError(f"expected a list of integers, got {values!r}")
    return tuple(map(int, values))


def ideal_from_document(doc):
    """IdealDocument JSON: {"vars": d, "gens": [[...], ...]} with integer
    entries, possibly as decimal strings.  Every malformed document is an
    IdealParseError at position 0: a missing key, an entry that is not an
    integer, and whatever minimalize rejects (no generators, d below 1, a
    negative exponent, or a generator whose length is not d, named)."""
    try:
        dim = _document_ints([doc["vars"]])[0]
        return minimalize([_document_ints(g) for g in doc["gens"]], dim)
    except (KeyError, TypeError, ValueError) as ex:
        raise IdealParseError(f"bad ideal document: {ex}", 0) from None


def ideal_to_document(I):
    return {"vars": str(I.dim), "gens": [[str(v) for v in g] for g in I.gens]}
