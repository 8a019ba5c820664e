import json
import random
import re

import pytest

from icm.cli import main
from icm.properties import run_suites


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasicCommands:
    def test_closure(self, capsys):
        code, out = run(capsys, "closure", "x^2,y^2")
        assert code == 0
        assert out["command"] == "closure"
        assert out["result"]["gens"] == [["0", "2"], ["1", "1"], ["2", "0"]]

    def test_star(self, capsys):
        code, out = run(capsys, "star", "x,y", "x,y")
        assert code == 0
        assert out["result"]["gens"] == [["0", "2"], ["1", "1"], ["2", "0"]]

    def test_ord(self, capsys):
        code, out = run(capsys, "ord", "x^3,y^3,z^3,x*y,x*z,y*z")
        assert (code, out["result"]["ord"]) == (0, "2")

    def test_closed_predicate_and_alias(self, capsys):
        code, out = run(capsys, "closed?", "x^2,y^2")
        assert (code, out["result"]["closed"]) == (0, False)
        code, out = run(capsys, "closed", "x^2,x*y,y^2")
        assert (code, out["result"]["closed"]) == (0, True)

    def test_colon(self, capsys):
        code, out = run(capsys, "colon", "x^2,x*y,y^2", "x,y")
        assert out["result"]["gens"] == [["0", "1"], ["1", "0"]]

    def test_factor(self, capsys):
        code, out = run(capsys, "factor", "x^2,x*y,y^2")
        assert code == 0
        assert out["result"]["length"] == "2"
        assert out["result"]["atoms"] == [
            {"gens": [["0", "1"], ["1", "0"]], "vars": "2"}] * 2

    def test_factor_high_power(self, capsys):
        code, out = run(capsys, "factor", "x^1200")
        assert (code, out["result"]["length"]) == (0, "1200")

    def test_factorizations(self, capsys):
        code, out = run(capsys, "factorizations", "x^2,x*y,y^2")
        assert (code, out["result"]["count"]) == (0, "1")

    def test_factorizations_high_power(self, capsys):
        code, out = run(capsys, "factorizations", "x^1200")
        assert (code, out["result"]["count"]) == (0, "1")

    def test_irreducible(self, capsys):
        code, out = run(capsys, "irreducible?", "x,y")
        assert (code, out["result"]["irreducible"]) == (0, True)

    def test_divides(self, capsys):
        code, out = run(capsys, "divides", "x,y", "x^2,x*y,y^2")
        assert out["result"]["divides"] is True
        assert out["result"]["cofactor"]["gens"] == [["0", "1"], ["1", "0"]]
        code, out = run(capsys, "divides", "x^2,y", "x,y")
        assert out["result"]["divides"] is False

    def test_decompose2d(self, capsys):
        code, out = run(capsys, "decompose2d", "0,0; 1,0; 0,1")
        assert out["result"]["coefficients"] == [
            {"kind": "triangle", "v": ["-1", "1"], "coeff": "1"}]

    def test_phi(self, capsys):
        code, out = run(capsys, "phi", "2,0; 0,3")
        assert out["result"]["num"]["gens"] == [
            ["0", "3"], ["1", "2"], ["2", "0"]]
        assert out["result"]["identity"] is False

    def test_colon_factor(self, capsys):
        code, out = run(capsys, "colon-factor", "x^2,x*y^2,y^3")
        assert out["result"]["num_factors"] == [["2", "3"]]
        assert out["result"]["round_trip"] is True

    def test_verify_lipman(self, capsys):
        code, out = run(capsys, "verify", "lipman")
        assert (code, out["result"]["equal"]) == (0, True)
        assert out["result"]["ords"] == ["1", "2", "1", "1", "1"]
        assert out["result"]["distinct_factorizations"] == "2"
        assert out["result"]["factorization_sizes"] == ["2", "3"]

    def test_props_small(self, capsys):
        code, out = run(capsys, "props", "closure_laws", "--seed", "3",
                        "--cases", "20")
        assert (code, out["result"]["ok"]) == (0, True)


class TestInputModes:
    def test_json_document(self, capsys, tmp_path):
        doc = tmp_path / "ideal.json"
        doc.write_text(json.dumps({"vars": 2, "gens": [[2, 0], [0, 2]]}))
        code, out = run(capsys, "--json", "closure", str(doc))
        assert out["result"]["gens"] == [["0", "2"], ["1", "1"], ["2", "0"]]

    def test_dim_flag(self, capsys):
        code, out = run(capsys, "--dim", "3", "ord", "x,y")
        assert out["result"]["ord"] == "1"

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ICM_BUDGET", "1")
        code, _ = run(capsys, "factorizations", "x^9,x*y,y^9")
        assert code == 3


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, out = run(capsys, "closure", "x^")
        assert code == 1
        assert "position" in out

    def test_precondition_violation(self, capsys):
        code, out = run(capsys, "irreducible?", "x^2,y^2")
        assert (code, out) == (2, {"error": "ideal must be integrally closed"})

    def test_unreadable_json_document(self, capsys, tmp_path):
        code, out = run(capsys, "--json", "closure",
                        str(tmp_path / "missing.json"))
        assert code == 1
        assert "position" in out

    @pytest.mark.parametrize("doc", [
        {"vars": 2, "gens": [[1.5, 0], [0, 2]]},
        {"vars": 2.9, "gens": [[1, 0], [0, 1]]},
        {"vars": True, "gens": [[1]]},
    ], ids=["float-exponent", "float-vars", "bool-vars"])
    def test_non_integer_json_document(self, capsys, tmp_path, doc):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "--json", "closure", str(path))
        assert code == 1
        assert "position" in out

    def test_non_integer_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ICM_BUDGET", "abc")
        code, out = run(capsys, "closure", "x")
        assert code == 2
        assert "budget" in out["error"]

    def test_negative_budget_flag(self, capsys):
        code, out = run(capsys, "--budget", "-1", "factor", "x^2,x*y,y^2")
        assert code == 2
        assert "budget" in out["error"]

    def test_budget_exceeded(self, capsys):
        code, out = run(capsys, "--budget", "1", "factorizations",
                        "x^9,x*y,y^9")
        assert code == 3
        assert int(out["examined"]) >= 1

    def test_decompose2d_budget_exceeded(self, capsys):
        # coefficients summing to 2,000,001 copies, past the default budget
        code, out = run(capsys, "decompose2d", "0,0; 1000000,1; 1,1000000")
        assert code == 3
        assert out["examined"] == "2000001"

    def test_unknown_verify_target(self, capsys):
        code, out = run(capsys, "verify", "nope")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--dim", "abc", "ord", "x"],
        ["frobnicate", "x"],
        ["star", "x"],
    ], ids=["bad-dim", "unknown-command", "missing-argument"])
    def test_argument_error_is_json(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 2
        assert set(out) == {"error"}

    @pytest.mark.parametrize("argv", [
        ["props", "nonsense"],
        ["props", "--cases", "-3", "cancellation"],
        ["--dim", "0", "closure", "1"],
        ["--dim", "-1", "closure", "1"],
    ], ids=["unknown-suite", "negative-cases", "dim-zero", "dim-negative"])
    def test_bad_argument_value_is_json(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 2
        assert set(out) == {"error"}

    def test_run_suites_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="nonsense"):
            run_suites(names=["closure_laws", "nonsense"])


class TestDeterminism:
    def test_sorted_generator_lists(self, capsys):
        _, out1 = run(capsys, "closure", "y^2,x^2")
        _, out2 = run(capsys, "closure", "x^2,y^2")
        assert out1["result"] == out2["result"]

    def test_all_numbers_are_strings(self, capsys):
        _, out = run(capsys, "factor", "x^2,x*y,y^2")

        def only_strings(v):
            if isinstance(v, dict):
                return all(only_strings(x) for x in v.values())
            if isinstance(v, list):
                return all(only_strings(x) for x in v)
            return not isinstance(v, (int, float)) or isinstance(v, bool)

        assert only_strings(out["result"])


class TestFuzz:
    """Seeded random command lines built from the README examples: each
    must print exactly one JSON object and exit with a documented code."""

    README = [
        ["closure", "x^2,y^2"],
        ["closed?", "x^2,x*y,y^2"],
        ["star", "x,y", "x,y"],
        ["ord", "x^3,y^3,z^3,x*y,x*z,y*z"],
        ["colon", "x^2,x*y,y^2", "x,y"],
        ["factor", "x^2,x*y,y^2"],
        ["factorizations", "x^2,x*y,y^2"],
        ["irreducible?", "x,y"],
        ["divides", "x,y", "x^2,x*y,y^2"],
        ["decompose2d", "0,0; 1,0; 0,1"],
        ["phi", "2,0; 0,3"],
        ["colon-factor", "x^2,x*y^2,y^3"],
    ]
    IDEAL_COMMANDS = {"closure", "closed?", "star", "ord", "colon", "factor",
                      "factorizations", "irreducible?", "divides",
                      "colon-factor"}
    NON_DIGITS = "xyzw^*,; -+()."

    @classmethod
    def mutate(cls, rng, text):
        """Insert or delete non-digit characters.  A mutation that would
        join two digits is skipped, so no number grows past one digit."""
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                i = rng.randint(0, len(text))
                candidate = text[:i] + rng.choice(cls.NON_DIGITS) + text[i:]
            else:
                spots = [i for i, ch in enumerate(text) if not ch.isdigit()]
                if not spots:
                    continue
                i = rng.choice(spots)
                candidate = text[:i] + text[i + 1:]
            if not re.search(r"\d\d", candidate):
                text = candidate
        return text

    @classmethod
    def random_value(cls, rng, depth=0):
        kinds = ["int", "str", "float", "bool", "null"]
        kind = rng.choice(kinds + (["list", "dict"] if depth < 2 else []))
        if kind == "int":
            return rng.randint(-1, 4)
        if kind == "str":
            return rng.choice([str(rng.randint(0, 4)), "x", "", " 2", "1.0"])
        if kind == "float":
            return rng.choice([1.5, 2.0, -0.5])
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "null":
            return None
        if kind == "list":
            return [cls.random_value(rng, depth + 1)
                    for _ in range(rng.randint(0, 3))]
        return {"vars": cls.random_value(rng, depth + 1)}

    @classmethod
    def random_document(cls, rng):
        """IdealDocument text: mostly well-shaped with odd entries, sometimes
        missing keys, another JSON type or not JSON at all."""
        shape = rng.random()
        if shape < 0.05:
            return '{"vars": 2, "gens": [[1, 0]'
        if shape < 0.15:
            return json.dumps(cls.random_value(rng))
        dim = rng.randint(1, 3)
        doc = {"vars": dim if rng.random() < 0.7 else cls.random_value(rng),
               "gens": [[rng.randint(0, 4) if rng.random() < 0.8
                         else cls.random_value(rng, 1)
                         for _ in range(dim + (rng.random() < 0.1))]
                        for _ in range(rng.randint(0, 3))]}
        if rng.random() < 0.1:
            del doc[rng.choice(["vars", "gens"])]
        return json.dumps(doc)

    def random_argv(self, rng, tmp_path, case):
        argv = ["--budget", "200"]
        if rng.random() < 0.2:
            argv += ["--dim", rng.choice(["1", "2", "3", "4", "0", "x"])]
        if rng.random() < 0.1:
            return argv + ["props", "--seed", str(rng.randint(0, 9)),
                           "--cases", str(rng.randint(0, 2))] + rng.sample(
                               ["closure_laws", "cancellation", "nope"],
                               rng.randint(0, 1))
        command, *texts = rng.choice(self.README)
        if command in self.IDEAL_COMMANDS and rng.random() < 0.3:
            argv.append("--json")
            paths = []
            for k in range(len(texts)):
                path = tmp_path / f"doc{case}_{k}.json"
                path.write_text(self.random_document(rng))
                paths.append(str(path))
            return argv + [command] + paths
        return argv + [command] + [self.mutate(rng, t) for t in texts]

    def test_random_inputs_give_one_json_object(self, capsys, tmp_path):
        rng = random.Random(2024)
        for case in range(300):
            argv = self.random_argv(rng, tmp_path, case)
            code = main(argv)
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1, argv
            assert isinstance(json.loads(lines[0]), dict), argv
            assert code in {0, 1, 2, 3}, argv
