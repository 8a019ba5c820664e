import copy
import pickle

import pytest

from icm.errors import IdealParseError
from icm.ideals import MonomialIdeal, unit_ideal
from icm.parsing import (ideal_from_document, ideal_to_document, parse_ideal,
                         parse_points, render_ideal)


def ideal(*gens):
    gens = [tuple(g) for g in gens]
    return MonomialIdeal(len(gens[0]), tuple(sorted(gens)))


class TestParseIdeal:
    def test_basic(self):
        assert parse_ideal("x^2, x*y, y^2") == ideal((2, 0), (1, 1), (0, 2))

    def test_three_variable_mixed_powers(self):
        assert parse_ideal("x^3,y^3,z^3,x*y,x*z,y*z") == ideal(
            (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_unit(self):
        assert parse_ideal("1") == unit_ideal(1)
        assert parse_ideal("1", dim=3) == unit_ideal(3)

    def test_indexed_variables(self):
        assert parse_ideal("x1^2*x5") == ideal((2, 0, 0, 0, 1))

    def test_repeated_factors_add(self):
        assert parse_ideal("x*x*y^2") == ideal((2, 2))

    def test_dim_override(self):
        assert parse_ideal("x,y", dim=3) == ideal((1, 0, 0), (0, 1, 0))

    def test_minimalizes(self):
        assert parse_ideal("x, x^2, y") == ideal((1, 0), (0, 1))

    def test_whitespace(self):
        assert parse_ideal("  x ^ 2 ,  y  ") == ideal((2, 0), (0, 1))


class TestParseErrors:
    @pytest.mark.parametrize("text", ["", "x^", "x+y", "x,,y", "x^2 y", "^2"])
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(IdealParseError) as exc:
            parse_ideal(text)
        assert exc.value.position >= 0

    @pytest.mark.parametrize("text, dim, message, position", [
        ("", None, "empty input", 0),
        (" ", None, "empty input", 0),
        ("*", None, "expected a variable factor", 0),
        ("*x*", None, "expected a variable factor", 0),
        ("x*", None, "empty generator", 0),
        ("1*", None, "empty generator", 0),
        ("x,,y", None, "empty generator", 2),
        ("x*y,", None, "empty generator", 4),
        ("x,y*", None, "empty generator", 2),
        ("x* ", None, "expected a variable factor", 2),
        (" ,x", None, "expected a variable factor", 0),
        ("x**y", None, "expected a variable factor", 2),
        ("^2", None, "expected a variable factor", 0),
        ("x y", None, "expected '*' between factors", 1),
        ("xy", None, "expected '*' between factors", 1),
        ("x+y", None, "expected '*' between factors", 1),
        ("x^", None, "expected an exponent after '^'", 1),
        ("x ^ ", None, "expected an exponent after '^'", 2),
        ("x^2^", None, "expected an exponent after '^'", 3),
        ("x^ y", None, "expected '*' between factors", 1),
        ("x^2^3", None, "expected '*' between factors", 3),
        ("x^2 y", None, "expected '*' between factors", 3),
        ("x * 1 z", None, "expected '*' between factors", 5),
        ("x*y, z^2*x1^", None, "expected an exponent after '^'", 11),
        ("y*x0", None, "variable index must be >= 1, got x0", 2),
        ("x0*", None, "variable index must be >= 1, got x0", 0),
        ("x3", 2, "variable index 3 exceeds dimension 2", 0),
        ("0", None, "the zero monomial cannot generate", 0),
        ("x, y*0", None, "the zero monomial cannot generate", 5),
    ])
    def test_error_table(self, text, dim, message, position):
        """Every error the grammar raises, with its exact message and
        offset: an empty last factor is an empty generator at the
        generator's offset, a piece with no factor is reported at the
        piece, a bare '^' after a factor at the '^', and other text after
        a factor where that factor ends."""
        with pytest.raises(IdealParseError) as exc:
            parse_ideal(text, dim=dim)
        assert exc.value.args == (message, position)

    def test_zero_monomial(self):
        with pytest.raises(IdealParseError):
            parse_ideal("0")

    def test_index_beyond_dim(self):
        with pytest.raises(IdealParseError):
            parse_ideal("x3", dim=2)

    @pytest.mark.parametrize("text, dim, position, index", [
        ("x3", 2, 0, 3), ("x,y", 1, 2, 2), ("x^2,x*z", 2, 6, 3),
        ("x*y, x1*x5^2", 2, 8, 5)])
    def test_index_beyond_dim_position(self, text, dim, position, index):
        """The position is the offset of the first variable whose index
        exceeds dim, as for x0."""
        with pytest.raises(IdealParseError) as exc:
            parse_ideal(text, dim=dim)
        assert exc.value.position == position
        assert str(exc.value).startswith(
            f"variable index {index} exceeds dimension {dim}")

    @pytest.mark.parametrize("text, position", [
        ("x0^2", 0), ("y*x0", 2), ("x, y*x0", 5)])
    def test_variable_index_zero(self, text, position):
        with pytest.raises(IdealParseError) as exc:
            parse_ideal(text)
        assert exc.value.position == position

    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)),
                                       copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_survives_pickle_and_copy(self, clone):
        with pytest.raises(IdealParseError) as exc:
            parse_ideal("y*x0")
        again = clone(exc.value)
        assert type(again) is IdealParseError
        assert str(again) == str(exc.value) == \
            "variable index must be >= 1, got x0 (at position 2)"
        assert again.position == 2


class TestRender:
    @pytest.mark.parametrize("text", [
        "x^2, x*y, y^2", "1", "x^3,y^3,z^3,x*y,x*z,y*z", "x1*x5^2",
        "x*w, z^4",
    ])
    def test_round_trip(self, text):
        I = parse_ideal(text)
        assert parse_ideal(render_ideal(I)) == I

    def test_high_dimension_names(self):
        I = parse_ideal("x1*x5^2")
        assert "x5^2" in render_ideal(I)


class TestPoints:
    def test_basic(self):
        assert parse_points("2,0; 0,3") == [(2, 0), (0, 3)]

    def test_negative_coords(self):
        assert parse_points("-1,2") == [(-1, 2)]

    def test_mixed_dimension_rejected(self):
        with pytest.raises(IdealParseError) as info:
            parse_points("1,2; 1,2,3")
        assert info.value.position == 5

    @pytest.mark.parametrize("text, dim, position", [
        ("1,0; 0,x", None, 5),
        ("1,0;;0,1", 2, 4),
        ("1,2; 3,4,5", 2, 5),
    ])
    def test_error_position(self, text, dim, position):
        with pytest.raises(IdealParseError) as info:
            parse_points(text, dim=dim)
        assert info.value.position == position


class TestDocuments:
    def test_round_trip(self):
        I = ideal((2, 0), (1, 1), (0, 2))
        assert ideal_from_document(ideal_to_document(I)) == I

    def test_string_numbers_accepted(self):
        doc = {"vars": "2", "gens": [["2", "0"], [0, "2"]]}
        assert ideal_from_document(doc) == ideal((2, 0), (0, 2))

    def test_negative_rejected(self):
        with pytest.raises(IdealParseError):
            ideal_from_document({"vars": 2, "gens": [[-1, 0]]})

    @pytest.mark.parametrize("gens, bad, length", [
        ([["1", "0"], ["0", "1"], ["1", "1", "1"]], "(1, 1, 1)", 3),
        ([[0, 0], [1]], "(1,)", 1),
    ], ids=["long", "short"])
    def test_wrong_length_generator_rejected(self, gens, bad, length):
        """Neither dropped by the sweep nor truncated: the error names the
        generator."""
        with pytest.raises(IdealParseError) as exc:
            ideal_from_document({"vars": "2", "gens": gens})
        assert exc.value.args == (f"bad ideal document: generator {bad} "
                                  f"has length {length}, expected 2", 0)

    @pytest.mark.parametrize("doc", [
        {"vars": 2, "gens": [[1.5, 0], [0, 2]]},
        {"vars": 2, "gens": [[2.0, 0]]},
        {"vars": 2.9, "gens": [[1, 0]]},
        {"vars": True, "gens": [[1]]},
        {"vars": 2, "gens": [[False, 1]]},
        {"vars": 2, "gens": ["20"]},
        {"vars": 2, "gens": "20"},
        {"vars": 2, "gens": []},
        {"vars": 0, "gens": [[]]},
        {"vars": 2, "gens": [[1, -1]]},
    ], ids=["float-exponent", "integral-float", "float-vars", "bool-vars",
            "bool-exponent", "string-generator", "string-gens",
            "no-generators", "vars-zero", "negative-exponent"])
    def test_non_integer_rejected(self, doc):
        """A non-integer entry, like every other malformed document (no
        generators, vars below 1, a negative exponent), is a parse error
        at position 0."""
        with pytest.raises(IdealParseError) as exc:
            ideal_from_document(doc)
        assert exc.value.position == 0
