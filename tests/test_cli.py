import json

import pytest

from zetacalc import cli
from zetacalc.cli import main
from zetacalc.diagram import Id, Seq
from zetacalc.evaluator import EvalError, matrix_to_json, denote
from zetacalc.semantics import eval_as_map, translate
from zetacalc.syntax import parse
from zetacalc.types import Context, infer


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


class TestCheck:
    def test_sharing(self, write, capsys):
        f = write("share.zeta", "Z x:1. <x,x>")
        assert main(["check", f]) == 0
        out = capsys.readouterr().out
        assert "1 -> 1 * 1" in out
        assert "x shared 2 ways in basis Z" in out

    def test_unit(self, write, capsys):
        f = write("unit.zeta", "*")
        assert main(["check", f]) == 0
        assert capsys.readouterr().out.strip().startswith("0")

    def test_unbound(self, write, capsys):
        f = write("bad.zeta", "y")
        assert main(["check", f]) == 1
        assert "unbound variable y" in capsys.readouterr().err

    def test_parse_error(self, write, capsys):
        f = write("bad.zeta", "Z x. <x")
        assert main(["check", f]) == 2

    def test_linearity_violation(self, write, capsys):
        f = write("bad.zeta", "\\x:1. <x,x>")
        assert main(["check", f]) == 1

    def test_with_context(self, write, capsys):
        f = write("open.zeta", "<x, x>")
        assert main(["check", f, "--ctx", "x:Z:1"]) == 0
        assert "1 * 1" in capsys.readouterr().out

    def test_json_output(self, write, capsys):
        f = write("share.zeta", "Z x:1. <x,x>")
        assert main(["check", f, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "1 -> 1 * 1"
        assert doc["summary"]["c_nodes"]["x"]["arity"] == 2

    def test_long_h_chain(self, write, capsys):
        # the derivation is deeper than the recursion limit allows a
        # recursive walk to resolve
        f = write("hchain.zeta", " o ".join(["H"] * 128))
        assert main(["check", f]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 -> 1"

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.zeta"]) == 2


class TestDiagram:
    def test_json_has_sharing_spider(self, write, capsys):
        f = write("share.zeta", "Z x:1. <x,x>")
        assert main(["diagram", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        spiders = []

        def walk(node):
            if not isinstance(node, dict):
                return
            if node.get("kind") == "spider":
                spiders.append(node)
            for v in node.values():
                walk(v) if isinstance(v, dict) else None

        walk(doc["diagram"])
        assert any(s["basis"] == "Z" and s["out"] == 2 for s in spiders)

    def test_dot(self, write, capsys):
        f = write("share.zeta", "Z x:1. <x,x>")
        assert main(["diagram", f, "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestEval:
    def test_as_map_matches_library_json(self, write, capsys):
        f = write("share.zeta", "Z x:1. <x,x>")
        assert main(["eval", f, "--as-map", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        _, d = infer(Context(), parse("Z x:1. <x,x>"))
        expect = matrix_to_json(denote(eval_as_map(translate(d)).diagram))
        assert out == expect

    def test_human_output(self, write, capsys):
        f = write("unit.zeta", "Z[1]")
        assert main(["eval", f]) == 0
        assert "[2x1]" in capsys.readouterr().out

    def test_budget_exceeded(self, write, capsys, monkeypatch):
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "2")
        f = write("wide.zeta", "Z[3]")
        assert main(["eval", f]) == 3

    def test_budget_env_override_up(self, write, capsys, monkeypatch):
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "3")
        f = write("wide.zeta", "Z[3]")
        assert main(["eval", f]) == 0

    def test_budget_env_malformed(self, write, capsys, monkeypatch):
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "abc")
        f = write("unit.zeta", "Z[1]")
        assert main(["eval", f]) == 2
        assert "ZETA_WIRE_BUDGET" in capsys.readouterr().err


class TestErrorExits:
    def test_translation_error(self, write, capsys):
        f = write("state.zeta", "Z[1]")
        assert main(["eval", f, "--as-map"]) == 1
        assert "TranslationError" in capsys.readouterr().err

    def test_diagram_error(self, write, capsys, monkeypatch):
        def ill_formed(deriv):
            return Seq(Id(1), Id(2))

        monkeypatch.setattr(cli, "translate", ill_formed)
        f = write("unit.zeta", "Z[1]")
        assert main(["diagram", f]) == 1
        assert "ArityError" in capsys.readouterr().err

    def test_eval_error(self, write, capsys, monkeypatch):
        def failing(diagram):
            raise EvalError("dimension mismatch")

        monkeypatch.setattr(cli, "denote", failing)
        f = write("unit.zeta", "Z[1]")
        assert main(["eval", f]) == 1
        assert "dimension mismatch" in capsys.readouterr().err

    def test_too_deep(self, write, capsys):
        f = write("deep.zeta", "<" * 999 + "*" + ",*>" * 999)
        assert main(["check", f]) == 3
        err = capsys.readouterr().err
        assert "too deep" in err and "Traceback" not in err


class TestEquiv:
    def test_lambda_embed(self, write, capsys):
        f1 = write("a.zeta", "Z x:1. x")
        f2 = write("b.zeta", "\\x:1. x")
        assert main(["equiv", f1, f2]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_distinct(self, write, capsys):
        f1 = write("a.zeta", "Z[1]")
        f2 = write("b.zeta", "Z[1]^pi")
        assert main(["equiv", f1, f2]) == 1
        assert "DISTINCT" in capsys.readouterr().out

    def test_double_h(self, write, capsys):
        f1 = write("a.zeta", "\\x:1. H (H x)")
        f2 = write("b.zeta", "\\x:1. x")
        assert main(["equiv", f1, f2]) == 0

    def test_size_mismatch(self, write, capsys):
        f1 = write("a.zeta", "Z[1]")
        f2 = write("b.zeta", "Z[2]")
        assert main(["equiv", f1, f2]) == 2

    def test_json(self, write, capsys):
        f1 = write("a.zeta", "Z x:1. x")
        f2 = write("b.zeta", "\\y:1. y")
        assert main(["equiv", f1, f2, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "EQUIVALENT"


class TestRulesCmd:
    def test_all_sound(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "unsound" not in out.replace("side-condition-unmet", "")

    def test_json(self, capsys):
        assert main(["rules", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert {d["rule"] for d in docs} >= {"beta-linear", "h-gen"}
        assert all(d["status"] != "unsound" for d in docs)


class TestShareCheck:
    def test_positive(self, write, capsys):
        f = write("xpi.zeta", "X[1]^pi")
        assert main(["share-check", f, "--basis", "Z", "--copies", "2..3"]) == 0
        out = capsys.readouterr().out
        assert out.count("yes") == 2

    def test_negative(self, write, capsys):
        f = write("zhalf.zeta", "Z[1]^pi/2")
        assert main(["share-check", f, "--basis", "Z", "--copies", "2"]) == 1
        assert "no" in capsys.readouterr().out

    def test_json(self, write, capsys):
        f = write("xpi.zeta", "X[1]^pi")
        assert main(["share-check", f, "--basis", "Z", "--copies", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"2": True}
