import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetacalc
from zetacalc import cli, evaluator, theory
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

    def test_let_renames_only_a_clashing_binder(self, write, capsys):
        # x is a context name and y is not: y keeps its name in the premise
        # that contracts it
        f = write("let.zeta", "Z x:1*1. let <x, y> =Z x in <y, <y, x>>")
        assert main(["check", f]) == 0
        assert "C-node: y shared 2 ways in basis Z" in capsys.readouterr().out

    def test_unit(self, write, capsys):
        f = write("unit.zeta", "*")
        assert main(["check", f]) == 0
        assert capsys.readouterr().out.strip().startswith("0")

    def test_unbound(self, write, capsys):
        f = write("bad.zeta", "y")
        assert main(["check", f]) == 1
        assert "unbound variable y" in capsys.readouterr().err

    def test_duplicate_context_names(self, write, capsys):
        f = write("unit.zeta", "*")
        assert main(["check", f, "--ctx", "x:Z:1, x:Z:1"]) == 1
        err = capsys.readouterr().err
        assert "type error: duplicate context names in ['x', 'x']" in err
        assert "Traceback" not in err

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
        assert doc["summary"]["c_nodes"] == [{"var": "x", "arity": 2, "basis": "Z"}]

    def test_one_line_per_contraction(self, write, capsys):
        # two contractions of the same name are two C nodes
        f = write("twice.zeta", "<Z x:1. <x,x>, Z x:1. <x,<x,x>>>")
        assert main(["check", f]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("C-node:")]
        assert lines == [
            "C-node: x shared 2 ways in basis Z",
            "C-node: x shared 3 ways in basis Z",
        ]

    def test_long_h_chain(self, write, capsys):
        # the derivation is deeper than the recursion limit allows a
        # recursive walk to resolve
        f = write("hchain.zeta", " o ".join(["H"] * 128))
        assert main(["check", f]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 -> 1"

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.zeta"]) == 2


def _fresh_python(*args):
    """Run `python *args` in a new interpreter that imports this zetacalc."""
    src = str(Path(zetacalc.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestFreshProcess:
    def test_compose_binder_does_not_capture(self, write):
        # a new interpreter, so no earlier parse in this process can have
        # chosen the sugar's binder names
        f = write("capture.zeta", "Z _c2:1->1. (_c2 o rot Z^0)")
        r = _fresh_python("-m", "zetacalc.cli", "check", f)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[0] == "(1 -> 1) -> 1 -> 1"

    def test_deep_chain_at_the_default_recursion_limit(self, write):
        # composed redexes keep the H x 200 diagram shallow enough for the
        # recursive JSON writer and the evaluation walk
        f = write("hchain.zeta", " o ".join(["H"] * 200))
        for args, expect in [
            (["diagram", f], '"diagram"'),
            (["diagram", f, "--format", "dot"], "digraph"),
            (["eval", "--as-map", f], "[2x2]"),
        ]:
            r = _fresh_python("-m", "zetacalc.cli", *args)
            assert r.returncode == 0, (args, r.stderr)
            assert expect in r.stdout, args

    def test_term_printed_at_the_default_recursion_limit(self, write):
        # print_term keeps no frame per term level, so the JSON outputs,
        # which print the term, go as deep as check does
        f = write("hchain.zeta", " o ".join(["H"] * 248))
        for args in (["check", f], ["check", "--json", f], ["diagram", f]):
            r = _fresh_python("-m", "zetacalc.cli", *args)
            assert r.returncode == 0, (args, r.stderr)
        assert json.loads(r.stdout)["type"] == "1 -> 1"

    def test_import_builds_no_h(self):
        # H's derivation node, body and matrix are made on first use
        caches = "(types._hadamard, semantics._hadamard, evaluator._hadamard)"
        r = _fresh_python("-c", (
            "import zetacalc\n"
            "from zetacalc import evaluator, semantics, types\n"
            f"print([f.cache_info().currsize for f in {caches}])\n"
            "zetacalc.denote(zetacalc.translate(zetacalc.infer("
            "zetacalc.Context(), zetacalc.parse('Z[1]'))[1]).diagram)\n"
            f"print([f.cache_info().currsize for f in {caches}])\n"
        ))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["[0, 0, 0]", "[1, 1, 1]"]


class TestDiagram:
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "0ee3a8c6ee5c0acd0627521ff4cbfa746e1433cbd59fc07be2cfee5dcf2ff286"),
        ("dot", "81f6a0b1c4e5ef7f98e75f7eab88972fb896fabf0bb6904fa993da10c7fb625e"),
    ])
    def test_h_chain_output_unchanged_by_sharing(self, write, capsys, fmt, digest):
        # the output from before the H's of a chain shared one derivation
        # and one sub-diagram: walks still visit each H once per occurrence
        f = write("hchain.zeta", " o ".join(["H"] * 20))
        assert main(["diagram", f, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_dot_of_deep_chain(self, write, capsys):
        # nested deeper than the recursion limit allows a recursive walk
        f = write("hchain.zeta", " o ".join(["H"] * 200))
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

    def test_budget_env_negative(self, write, capsys, monkeypatch):
        f = write("share.zeta", "Z x:1. <x,x>")
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "-1")
        assert main(["eval", "--as-map", f]) == 2
        assert "must not be negative" in capsys.readouterr().err
        # a scalar diagram holds no leg, so it fits a budget of 0
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "0")
        assert main(["eval", write("unit.zeta", "*")]) == 0


def _copy_map(ways):
    return "Z x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)


class TestBudgetCountsTensors:
    """The budget bounds the legs of the largest tensor evaluation holds,
    not the width of the diagram."""

    def test_wide_narrow_chains_evaluate(self, write, capsys):
        # 15 wires wide at their widest, 4-leg tensors at most
        for src in ["H o H", " o ".join(["rot Z^pi/4"] * 4)]:
            assert main(["eval", "--as-map", write("chain.zeta", src)]) == 0, src
            assert "[2x2]" in capsys.readouterr().out

    def test_equiv_of_h_chains(self, write, capsys):
        f1 = write("a.zeta", "H o H")
        f2 = write("b.zeta", "H o H o H o H")
        assert main(["equiv", f1, f2]) == 0
        assert capsys.readouterr().out.startswith("EQUIVALENT")

    def test_fourteen_way_copy_map(self, write, capsys, monkeypatch):
        # a 1 -> 14 spider, a 15-leg tensor, one over the default budget
        f = write("copy14.zeta", _copy_map(14))
        assert main(["eval", "--as-map", f]) == 3
        assert "15 legs" in capsys.readouterr().err
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "15")
        assert main(["eval", "--as-map", f]) == 0
        assert "[16384x2]" in capsys.readouterr().out

    def test_share_check_honours_env(self, write, capsys, monkeypatch):
        # sharing one wire 3 ways applies a 1 -> 3 spider to the one-wire
        # state, so the largest tensor held is the 3-leg result
        f = write("xpi.zeta", "X[1]^pi")
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "2")
        assert main(["share-check", f, "--copies", "3"]) == 3
        assert "3 legs" in capsys.readouterr().err
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "3")
        assert main(["share-check", f, "--copies", "3"]) == 0
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "abc")
        assert main(["share-check", f, "--copies", "3"]) == 2

    def test_rules_honours_env(self, capsys, monkeypatch):
        # the pair-typed cong-abs instances hold a 6-leg tensor, the most
        # any instance needs
        assert main(["rules"]) == 0
        report = capsys.readouterr().out
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "5")
        assert main(["rules"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cong-abs [") and "6 legs" in captured.err
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "6")
        assert main(["rules"]) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("src, args, budget", [
        (_copy_map(60), ["eval", "--as-map"], "64"),
        (_copy_map(70), ["eval", "--as-map"], "100"),
        ("X[1]^pi", ["share-check", "--copies", "62"], "100"),
    ], ids=["eval-60-ways", "eval-70-ways", "share-check-62-copies"])
    def test_budget_past_addressable_memory(self, write, capsys, monkeypatch, src, args, budget):
        # each needs a spider of over 2^59 entries, more bytes than one
        # array can address
        monkeypatch.setenv("ZETA_WIRE_BUDGET", budget)
        assert main(args + [write("wide.zeta", src)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ZETA_WIRE_BUDGET" in err


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
        def failing(diagram, budget=None):
            raise EvalError("dimension mismatch")

        monkeypatch.setattr(cli, "denote", failing)
        f = write("unit.zeta", "Z[1]")
        assert main(["eval", f]) == 1
        assert "dimension mismatch" in capsys.readouterr().err

    def test_out_of_memory(self, write, capsys, monkeypatch):
        def exhausted(diagram, budget=None):
            raise MemoryError

        monkeypatch.setattr(cli, "denote", exhausted)
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "100000")
        assert main(["eval", write("wide.zeta", "Z[40]")]) == 3
        err = capsys.readouterr().err
        assert "ZETA_WIRE_BUDGET" in err and "Traceback" not in err

    @pytest.mark.parametrize("src, code", [
        ("Z^-rad(1e-20) x:1. x", 0),
        ("rot Z^rad(1e400)", 2),
    ])
    def test_decimal_phase_edges(self, write, capsys, src, code):
        assert main(["check", write("phase.zeta", src)]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_integer_past_the_digit_limit(self, write, capsys):
        assert main(["check", write("long.zeta", "Z[" + "9" * 5000 + "]")]) == 2
        err = capsys.readouterr().err
        assert "5000 digits is too long" in err and "Traceback" not in err

    # an arity past sys.maxsize; one just below it is not probed, since it
    # would build a label list that large
    _HUGE = "9" * 40

    @pytest.mark.parametrize("src, command, code", [
        ("Z[{n}]", "check {f}", 0),
        ("Z[{n}]", "eval {f}", 3),
        ("Z[{n}]", "eval {f} --as-map", 3),
        ("Z[{n}]", "diagram {f}", 3),
        ("Z[{n}]", "diagram {f} --format dot", 3),
        ("Z[{n}]", "equiv {f} {f}", 3),
        ("Z[{n}]", "share-check {f} --copies 2", 3),
        ("Z[-{n}]", "eval {f}", 3),
    ])
    def test_arity_past_what_the_machine_can_index(self, write, capsys, src, command, code):
        f = write("huge.zeta", src.format(n=self._HUGE))
        assert main(command.format(f=f).split()) == code
        err = capsys.readouterr().err
        expected = "term too large: an arity past what the machine can index\n"
        assert err == ("" if code == 0 else expected)

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

    def test_json_names_the_method(self, write, capsys):
        hh = write("hh.zeta", "\\x:1. H (H x)")
        ident = write("id.zeta", "\\x:1. x")
        assert main(["equiv", hh, hh, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "EQUIVALENT", "scalar": [1.0, 0.0], "method": "same-diagram"}
        assert main(["equiv", hh, ident, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "dense"
        pole, flipped = write("a.zeta", "Z[1]"), write("b.zeta", "Z[1]^pi")
        assert main(["equiv", pole, flipped, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["method"]) == ("DISTINCT", "dense")
        # the text output names no method
        assert main(["equiv", hh, hh]) == 0
        assert capsys.readouterr().out == "EQUIVALENT  scalar = 1+0i\n"


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

    def test_open_variable(self, write, capsys):
        # a variable is its context entry: it commutes with sharing in the
        # entry's own basis only
        f = write("x.zeta", "x")
        ctx = ["--ctx", "x:Z:1"]
        assert main(["share-check", f, "--basis", "Z", "--copies", "0..3"] + ctx) == 0
        assert capsys.readouterr().out.count("yes") == 4
        assert main(["share-check", f, "--basis", "X", "--copies", "2"] + ctx) == 1
        assert "no" in capsys.readouterr().out

    @pytest.mark.parametrize("basis, code", [("Z", 0), ("X", 1)])
    def test_open_application(self, write, capsys, basis, code):
        f = write("fx.zeta", "f x")
        args = ["share-check", f, "--basis", basis, "--copies", "2"]
        assert main(args + ["--ctx", "x:Z:1, f:Z:1->1"]) == code


class TestRefusedInputs:
    """Option values and files the commands cannot use exit 2, never with a
    traceback or a verdict."""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
    @pytest.mark.parametrize("command", ["equiv", "rules"])
    def test_tolerance_must_be_finite_and_non_negative(self, write, capsys, command, tol):
        f = write("h.zeta", "H")
        args = {"equiv": ["equiv", f, f], "rules": ["rules"]}[command]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol" in captured.err

    def test_rules_takes_no_context(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rules", "--ctx", "x:Z:1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--ctx" in captured.err

    def test_diagram_takes_no_json_flag(self, write, capsys):
        # diagram chooses its output with --format
        f = write("h.zeta", "H")
        with pytest.raises(SystemExit) as exc:
            main(["diagram", f, "--format", "dot", "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--json" in captured.err
        assert main(["diagram", f, "--ctx", ""]) == 0

    def test_one_default_tolerance(self):
        parser = cli.build_parser()
        tols = {
            parser.parse_args(argv).tol
            for argv in (["rules"], ["equiv", "a", "b"], ["share-check", "a"])
        }
        fit = inspect.signature(evaluator.equal_up_to_scalar).parameters["tol"]
        assert tols == {fit.default} == {theory.DEFAULT_TOL} == {evaluator.DEFAULT_TOL}

    def test_one_budget(self, write, capsys, monkeypatch):
        # every command that evaluates reads ZETA_WIRE_BUDGET; the others
        # never look at it
        f = write("h.zeta", "H")
        monkeypatch.setenv("ZETA_WIRE_BUDGET", "abc")
        for args in (["eval", f], ["equiv", f, f], ["rules"], ["share-check", f]):
            assert main(args) == 2, args
            captured = capsys.readouterr()
            assert captured.out == "" and "ZETA_WIRE_BUDGET" in captured.err, args
        for args in (["check", f], ["diagram", f]):
            assert main(args) == 0, args

    def test_zero_tolerance_accepted(self, write, capsys):
        f = write("h.zeta", "H")
        assert main(["equiv", f, f, "--tol", "0"]) == 0

    @pytest.mark.parametrize("command", ["check", "diagram", "eval"])
    def test_tolerance_only_where_a_comparison_reads_it(self, write, capsys, command):
        f = write("h.zeta", "H")
        with pytest.raises(SystemExit) as exc:
            main([command, f, "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert main(["equiv", f, f, "--tol", "1e-9"]) == 0

    @pytest.mark.parametrize("copies", ["abc", "1..x", "2..", "3..2", "-1"])
    def test_copies_must_be_a_count_or_range(self, write, capsys, copies):
        f = write("xpi.zeta", "X[1]^pi")
        assert main(["share-check", f, "--copies", copies]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--copies" in captured.err

    def test_zero_copies_accepted(self, write, capsys):
        f = write("xpi.zeta", "X[1]^pi")
        assert main(["share-check", f, "--copies", "0..1"]) == 0
        assert capsys.readouterr().out.count("yes") == 2

    @pytest.mark.parametrize("command", ["check", "eval", "share-check"])
    def test_file_not_utf8(self, tmp_path, capsys, command):
        f = tmp_path / "latin1.zeta"
        f.write_bytes("Z x:1. <x, \xe9>".encode("latin-1"))
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "not UTF-8" in err
