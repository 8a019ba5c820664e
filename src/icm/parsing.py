"""Text and JSON input formats for ideals and polytopes.

Grammar for ideals: generators separated by commas; a generator is a
'*'-separated list of factors `x<i>` or `x<i>^<n>`, with aliases x, y, z, w
for the first four variables; `1` is the unit generator.  The ambient
dimension is the largest variable index seen unless given explicitly.
"""

from __future__ import annotations

import re

from .errors import IdealParseError
from .ideals import minimalize

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}
_TOKEN = re.compile(r"\s*(?:(?P<var>x\d+|[xyzw])(?:\s*\^\s*(?P<exp>\d+))?"
                    r"|(?P<one>1)|(?P<zero>0))")


def _parse_generator(text, offset, dim):
    """One monomial -> dict var_index -> exponent, empty for the unit.
    Unless dim is None, a variable of index above dim is an error at its
    offset."""
    pos = 0
    powers = {}
    expect_factor = True
    while pos < len(text):
        if not expect_factor:
            star = re.match(r"\s*\*", text[pos:])
            if star:
                pos += star.end()
                expect_factor = True
                continue
            if text[pos:].strip() == "":
                break
            raise IdealParseError("expected '*' between factors",
                                  offset + pos)
        m = _TOKEN.match(text, pos)
        if not m:
            raise IdealParseError("expected a variable factor", offset + pos)
        if m.group("zero"):
            raise IdealParseError("the zero monomial cannot generate",
                                  offset + m.start("zero"))
        if m.group("one"):
            pos = m.end()
            expect_factor = False
            continue
        var = m.group("var")
        index = _ALIASES[var] if var in _ALIASES else int(var[1:])
        if index < 1:
            raise IdealParseError(f"variable index must be >= 1, got {var}",
                                  offset + m.start("var"))
        if dim is not None and index > dim:
            raise IdealParseError(
                f"variable index {index} exceeds dimension {dim}",
                offset + m.start("var"))
        exp = int(m.group("exp")) if m.group("exp") else 1
        powers[index] = powers.get(index, 0) + exp
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise IdealParseError("empty generator", offset)
    return powers


def parse_ideal(text, dim=None):
    """Parse the generator grammar into a minimalized monomial ideal."""
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
    names = (["x", "y", "z", "w"][:I.dim] if I.dim <= 4
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
    entries, possibly as decimal strings."""
    try:
        dim = _document_ints([doc["vars"]])[0]
        gens = [_document_ints(g) for g in doc["gens"]]
    except (KeyError, TypeError, ValueError) as ex:
        raise IdealParseError(f"bad ideal document: {ex}", 0) from None
    if any(v < 0 for g in gens for v in g):
        raise IdealParseError("negative exponent in ideal document", 0)
    return minimalize(gens, dim)


def ideal_to_document(I):
    return {"vars": str(I.dim), "gens": [[str(v) for v in g] for g in I.gens]}
