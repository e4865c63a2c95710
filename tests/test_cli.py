"""End-to-end command tests: exit codes, round trips, byte determinism."""

import json
import subprocess
import sys

import pytest

from matroidkit.cli import run

from conftest import FIXTURES

M1 = str(FIXTURES / "crossing_m1.json")
M2 = str(FIXTURES / "crossing_m2.json")
PATH3 = str(FIXTURES / "path3_graph.json")
K22 = str(FIXTURES / "k22_graph.json")
TRIANGLE = str(FIXTURES / "triangle_graphic.json")
U24 = str(FIXTURES / "uniform24.json")
BAD_I2 = str(FIXTURES / "system_missing_subset.json")


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_intersect_reports_size_two(self, capsys):
        code, out = invoke(["intersect", "--m1", M1, "--m2", M2], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 2
        assert payload["I"] == ["a", "d"]

    def test_intersect_min_rank_agrees(self, capsys):
        code, out = invoke(["intersect", "--m1", M1, "--m2", M2, "--min-rank"], capsys)
        payload = json.loads(out)
        assert payload["min_rank"] == payload["size"] == 2

    def test_union_output(self, capsys):
        code, out = invoke(["union", "--m1", M1, "--m2", M2], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 4
        assert sorted(payload["I1"] + payload["I2"]) >= payload["union"]

    def test_rank_defaults_to_whole_ground(self, capsys):
        code, out = invoke(["rank", "--matroid", TRIANGLE], capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_rank_subset(self, capsys):
        code, out = invoke(["rank", "--matroid", U24, "--set", "a"], capsys)
        assert json.loads(out) == {"rank": 1, "set": ["a"]}

    def test_menger_path(self, capsys):
        code, out = invoke(["menger", "--graph", PATH3, "--s", "a", "--t", "c"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["paths"] == [["a", "b", "c"]]
        assert len(payload["separator"]) == 1

    def test_check_axioms_failure_exits_one_with_witness(self, capsys):
        code, out = invoke(["check-axioms", "--system", BAD_I2], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["i2"] == {"ok": False, "witness": [["a", "b", "c"], ["a", "c"]]}

    def test_check_axioms_accepts_family_specs(self, capsys):
        code, out = invoke(["check-axioms", "--system", U24], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_orthogonality(self, capsys):
        code, out = invoke(["orthogonality", "--matroid", TRIANGLE], capsys)
        assert code == 0
        assert json.loads(out) == {"ok": True}

    def test_gen_is_seed_deterministic(self, capsys):
        _, first = invoke(["gen", "--kind", "pairs", "--count", "3", "--seed", "7"], capsys)
        _, second = invoke(["gen", "--kind", "pairs", "--count", "3", "--seed", "7"], capsys)
        assert first == second
        assert len(json.loads(first)["instances"]) == 3


class TestVerifyRoundTrip:
    def test_intersection_certificate_reverifies(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code, _ = invoke(
            ["intersect", "--m1", M1, "--m2", M2, "--output", str(cert_path)], capsys
        )
        assert code == 0
        code, out = invoke(
            ["verify", "--kind", "intersection", "--m1", M1, "--m2", M2,
             "--certificate", str(cert_path)],
            capsys,
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_menger_certificate_reverifies(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        invoke(
            ["menger", "--graph", K22, "--s", "u1,u2", "--t", "w1,w2",
             "--output", str(cert_path)],
            capsys,
        )
        code, out = invoke(
            ["verify", "--kind", "menger", "--graph", K22, "--s", "u1,u2",
             "--t", "w1,w2", "--certificate", str(cert_path)],
            capsys,
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_tampered_certificate_fails_with_reason(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        invoke(["intersect", "--m1", M1, "--m2", M2, "--output", str(cert_path)], capsys)
        payload = json.loads(cert_path.read_text())
        payload["J2"] = payload["J1"]
        cert_path.write_text(json.dumps(payload))
        code, out = invoke(
            ["verify", "--kind", "intersection", "--m1", M1, "--m2", M2,
             "--certificate", str(cert_path)],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["reason"] == "parts overlap"


class TestErrorPaths:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": ')
        code = run(["rank", "--matroid", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1 column" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"type": "dual", "of": ' * 400 + '{"type": "uniform", "n": 3, "k": 1}' + "}" * 400,
            "[" * 3000 + "]" * 3000,
        ],
        ids=["spec-400-duals", "json-3000-levels"],
    )
    def test_deep_nesting_exits_two_with_one_line(self, tmp_path, text):
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "matroidkit", "rank", "--matroid", str(deep)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_unknown_label_exits_two(self, capsys):
        code = run(["rank", "--matroid", U24, "--set", "zz"])
        assert code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        assert run([]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["rank", "--matroid", U24, "--bogus"]) == 2


class TestDotExports:
    def test_menger_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "out.dot"
        code, _ = invoke(
            ["menger", "--graph", PATH3, "--s", "a", "--t", "c", "--dot", str(dot_path)],
            capsys,
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("graph menger {")
        assert "peripheries=2" in text  # separator marking
        assert "color=red" in text  # one path color class

    def test_intersect_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "out.dot"
        code, _ = invoke(
            ["intersect", "--m1", M1, "--m2", M2, "--dot", str(dot_path)], capsys
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph exchange {")
        assert "fillcolor=lightblue" in text


class TestByteDeterminism:
    COMMANDS = [
        ["intersect", "--m1", M1, "--m2", M2, "--min-rank"],
        ["union", "--m1", M1, "--m2", M2],
        ["menger", "--graph", K22, "--s", "u1,u2", "--t", "w1,w2"],
        ["rank", "--matroid", TRIANGLE],
        ["orthogonality", "--matroid", U24],
        ["check-axioms", "--system", BAD_I2],
        ["gen", "--kind", "menger", "--count", "4", "--seed", "11"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_repeated_runs_emit_identical_bytes(self, argv):
        # fresh interpreter per run so no in-process state can leak
        runs = [
            subprocess.run(
                [sys.executable, "-m", "matroidkit", *argv],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode
