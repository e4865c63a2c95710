"""End-to-end command tests: exit codes, round trips, byte determinism."""

import argparse
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

from matroidkit import MengerInstance, Multigraph, cli
from matroidkit.cli import run
from matroidkit.dot import menger_dot
from matroidkit.errors import InternalInvariantError
from matroidkit.jsonio import MAX_GROUND_SIZE
from matroidkit.menger import solve

from conftest import FIXTURES, grid_instance

M1 = str(FIXTURES / "crossing_m1.json")
M2 = str(FIXTURES / "crossing_m2.json")
PATH3 = str(FIXTURES / "path3_graph.json")
K22 = str(FIXTURES / "k22_graph.json")
TRIANGLE = str(FIXTURES / "triangle_graphic.json")
U24 = str(FIXTURES / "uniform24.json")
BAD_I1 = str(FIXTURES / "system_missing_empty.json")
BAD_I2 = str(FIXTURES / "system_missing_subset.json")
BAD_I3 = str(FIXTURES / "system_exchange_failure.json")


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
        assert payload["im"] == {"ok": True, "witness": None}

    @pytest.mark.parametrize("command", ["intersect", "union", "rank"])
    @pytest.mark.parametrize("fixture", [BAD_I1, BAD_I2], ids=["missing-empty", "missing-subset"])
    def test_non_matroid_systems_exit_two_outside_check_axioms(self, capsys, command, fixture):
        if command == "rank":
            argv = ["rank", "--matroid", fixture]
        else:
            argv = [command, "--m1", fixture, "--m2", fixture]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: explicit system ")
        assert captured.err.count("\n") == 1

    def test_check_axioms_reads_a_system_without_the_empty_set_as_given(self, capsys):
        code, out = invoke(["check-axioms", "--system", BAD_I1], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["i1"] == {"ok": False, "witness": []}
        assert payload["i2"] == {"ok": False, "witness": [["a"], []]}

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

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "partition", "blocks": [["a"]], "caps": ["x"]},
            {"type": "partition", "blocks": [["a", "b"]], "caps": [1.5]},
            {"type": "partition", "blocks": [["a"]], "caps": [True]},
            {"type": "binary", "matrix": [[1, "q"]]},
            {"type": "partition", "blocks": [[[1]]], "caps": [1]},
            {"type": "uniform", "n": -1, "k": 1},
            {"type": "uniform", "n": 2, "k": -1},
            {"type": "uniform", "n": 2, "k": 1, "labels": ["a"]},
            {"type": "partition", "blocks": [["a"], ["b"]], "caps": [1]},
            {"type": "partition", "blocks": [["a"]], "caps": [-1]},
            {"type": "partition", "blocks": [["a"], ["a", "b"]], "caps": [1, 1]},
            {"type": "binary", "matrix": [[1, 0], [1]]},
            {"type": "binary", "matrix": [[1, 2]]},
            {"type": "binary", "matrix": [[1, 0]], "labels": ["a"]},
        ],
        ids=[
            "cap-string",
            "cap-float",
            "cap-bool",
            "matrix-string",
            "label-list",
            "uniform-negative-n",
            "uniform-negative-k",
            "uniform-label-count",
            "partition-cap-count",
            "partition-negative-cap",
            "partition-overlap",
            "binary-ragged",
            "binary-entry-2",
            "binary-label-count",
        ],
    )
    def test_non_integer_scalars_and_list_labels_exit_two(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = run(["rank", "--matroid", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_integer_labels_keep_their_string_rendering(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"type": "partition", "blocks": [[1, "b"]], "caps": [1]}))
        code, out = invoke(["rank", "--matroid", str(path), "--set", "1,b"], capsys)
        assert code == 0
        assert json.loads(out) == {"rank": 1, "set": ["1", "b"]}

    def test_unknown_label_exits_two(self, capsys):
        code = run(["rank", "--matroid", U24, "--set", "zz"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--max-elements", "0"],
            ["gen", "--kind", "menger", "--max-vertices", "1"],
            ["gen", "--count", "-1"],
            ["gen", "--max-elements", str(MAX_GROUND_SIZE)],
            ["gen", "--kind", "menger", "--max-vertices", str(MAX_GROUND_SIZE + 1)],
        ],
        ids=[
            "max-elements-0",
            "max-vertices-1",
            "count-negative",
            "max-elements-past-cap",
            "max-vertices-past-cap",
        ],
    )
    def test_gen_bounds_exit_two_with_one_line(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_internal_invariant_failure_exits_one_with_one_line(self, monkeypatch, capsys):
        def broken(m1, m2):
            raise InternalInvariantError("coloring clash", payload=[1, 2])

        monkeypatch.setattr(cli, "pipeline", broken)
        code = run(["intersect", "--m1", M1, "--m2", M2])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "internal invariant failure: coloring clash\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--matroid", U24, "--output", "{tmp}/missing/x.json"],
            ["rank", "--matroid", U24, "--output", "{tmp}"],
            ["intersect", "--m1", M1, "--m2", M2, "--dot", "{tmp}/missing/x.dot"],
            ["menger", "--graph", PATH3, "--s", "a", "--t", "c", "--dot", "{tmp}"],
        ],
        ids=["output-missing-dir", "output-directory", "intersect-dot", "menger-dot"],
    )
    def test_unwritable_output_exits_two_with_one_line(self, tmp_path, capsys, argv):
        code = run([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}")
        assert captured.err.count("\n") == 1

    def test_undecodable_input_file_exits_two_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        code = run(["rank", "--matroid", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: 'utf-8' codec")
        assert captured.err.count("\n") == 1

    def test_undecodable_stdin_exits_two_with_one_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matroidkit", "rank", "--matroid", "-"],
            input=b'{"type":"uniform","n":2,"k":1,"labels":["\xff","b"]}',
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: cannot read -: 'utf-8' codec")
        assert proc.stderr.count(b"\n") == 1

    def test_a_text_stream_in_place_of_stdin_is_still_read(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"type":"uniform","n":3,"k":2}'))
        code, out = invoke(["rank", "--matroid", "-"], capsys)
        assert code == 0
        assert json.loads(out) == {"rank": 2, "set": ["e0", "e1", "e2"]}

    @pytest.mark.parametrize(
        "name,reason",
        [
            ("{dir}", "[Errno 21] Is a directory: '{dir}'"),
            ("{dir}/missing.json", "[Errno 2] No such file or directory: '{dir}/missing.json'"),
            # The errno line names the path as pathlib spells it: "." parts
            # and trailing slashes dropped, and "" read as ".".
            ("{dir}/./missing.json/", "[Errno 2] No such file or directory: '{dir}/missing.json'"),
            ("", "[Errno 21] Is a directory: '.'"),
            (
                "{dir}/labels.json",
                "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte",
            ),
        ],
        ids=["directory", "missing", "missing-unnormalized", "empty", "undecodable"],
    )
    def test_unreadable_input_exits_two_with_its_exact_line(self, tmp_path, capsys, name, reason):
        (tmp_path / "labels.json").write_bytes(
            b'{"type":"uniform","n":2,"k":1,"labels":["\xff","b"]}'
        )
        path = name.format(dir=tmp_path)
        code = run(["rank", "--matroid", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot read {path}: {reason.format(dir=tmp_path)}\n"

    @pytest.mark.parametrize("suffix", ["/", "/."])
    def test_a_file_path_reads_as_pathlib_spells_it(self, capsys, suffix):
        code, out = invoke(["rank", "--matroid", U24 + suffix], capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_a_crlf_file_reports_its_json_error_by_line(self, tmp_path, capsys):
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(b'{"type":"uniform",\r\n"n":3,\r\n"k":}')
        code = run(["rank", "--matroid", str(crlf)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: malformed JSON at line 3 column 5: Expecting value\n"

    def test_files_and_stdin_report_the_same_error_position(self, tmp_path, monkeypatch, capsys):
        # Each lone carriage return ends a line, whichever way the bytes come in.
        data = b'{"type":"uniform",\r"n":3,\r"k":}'
        line = "error: malformed JSON at line 3 column 5: Expecting value\n"
        spec = tmp_path / "cr.json"
        spec.write_bytes(data)
        assert run(["rank", "--matroid", str(spec)]) == 2
        assert capsys.readouterr().err == line
        proc = subprocess.run(
            [sys.executable, "-m", "matroidkit", "rank", "--matroid", "-"],
            input=data,
            capture_output=True,
            check=False,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", line.encode())
        monkeypatch.setattr(sys, "stdin", io.StringIO(data.decode()))
        assert run(["rank", "--matroid", "-"]) == 2
        assert capsys.readouterr().err == line

    def test_min_rank_refuses_a_large_ground_before_any_output(self, tmp_path, capsys):
        spec = tmp_path / "u13.json"
        spec.write_text('{"type":"uniform","n":13,"k":2}\n')
        drawing = tmp_path / "exchange.dot"
        code = run(["intersect", "--m1", str(spec), "--m2", str(spec), "--min-rank",
                    "--dot", str(drawing)])
        captured = capsys.readouterr()
        assert code == 2
        assert not drawing.exists()
        assert captured.out == ""
        assert captured.err == "error: min-rank sweep requires |E| <= 12, got 13\n"

    def test_a_huge_uniform_matroid_exits_two_without_building_labels(self, tmp_path, capsys):
        spec = tmp_path / "huge.json"
        spec.write_text('{"type":"uniform","n":100000000,"k":1}\n')
        tracemalloc.start()
        try:
            code = run(["rank", "--matroid", str(spec)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: uniform matroid has 100000000 elements, more than the cap of "
            f"{MAX_GROUND_SIZE}\n"
        )
        # A hundred million labels would take gigabytes.
        assert peak < 1_000_000

    def test_missing_subcommand_exits_two(self, capsys):
        assert run([]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["rank", "--matroid", U24, "--bogus"]) == 2

    @pytest.mark.parametrize("command", ["union", "intersect"])
    def test_a_failed_verification_exits_one_with_one_line_and_no_output(
        self, tmp_path, capsys, command
    ):
        # {∅, a, b, c, bc} fails (I3); the union's own re-check catches it.
        output = tmp_path / "out.json"
        code = run([command, "--m1", BAD_I3, "--m2", BAD_I3, "--output", str(output)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "verification failure: a part extended through its anchor is not a base\n"
        )
        assert not output.exists()

    def test_orthogonality_failure_exits_one_with_its_witness(self, capsys):
        code, out = invoke(["orthogonality", "--matroid", BAD_I3], capsys)
        assert code == 1
        assert json.loads(out) == {"ok": False, "circuit": ["a", "b"], "cocircuit": ["a"]}

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["menger", "--graph", PATH3, "--s", ",", "--t", "c"],
                "expected a comma-separated label list, got ','",
            ),
            (
                ["verify", "--kind", "menger", "--certificate", PATH3, "--s", "a", "--t", "c"],
                "menger verification needs --graph, --s and --t",
            ),
        ],
        ids=["menger-empty-label-list", "verify-menger-without-graph"],
    )
    def test_missing_menger_inputs_exit_two_with_one_line(self, capsys, argv, message):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _stream_error(verb, code):
    return f"error: cannot {verb} -: [Errno {code}] {os.strerror(code)}\n"


class TestStreamFailures:
    """A command whose stdin or stdout cannot be used ends in exit 2 with one
    line on stderr, never a traceback.  Each row runs the command through
    ``sh`` under one redirection: stdin closed (``<&-``), stdout closed
    (``>&-``), or stdout on /dev/full, where every write fails.  With stderr
    closed or on /dev/full, an input error keeps its exit code and writes
    nothing to stdout."""

    ROWS = {
        "rank-no-stdin": (["rank", "--matroid", "-"], "<&-", _stream_error("read", errno.EBADF)),
        "rank-no-stdout": (["rank", "--matroid", U24], ">&-", _stream_error("write", errno.EBADF)),
        "rank-full-stdout": (
            ["rank", "--matroid", U24], ">/dev/full", _stream_error("write", errno.ENOSPC)
        ),
        "gen-no-stdout": (["gen", "--count", "2"], ">&-", _stream_error("write", errno.EBADF)),
        "gen-full-stdout": (
            ["gen", "--count", "2"], ">/dev/full", _stream_error("write", errno.ENOSPC)
        ),
        "rank-bad-input-no-stderr": (["rank", "--matroid", BAD_I1], "2>&-", None),
        "rank-bad-input-full-stderr": (["rank", "--matroid", BAD_I1], "2>/dev/full", None),
    }

    @pytest.mark.parametrize("argv,redirect,line", ROWS.values(), ids=ROWS.keys())
    def test_an_unusable_stream_exits_two_with_one_line(self, argv, redirect, line):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full here")
        proc = subprocess.run(
            ["sh", "-c", f'exec "$0" -m matroidkit "$@" {redirect}', sys.executable, *argv],
            stdout=subprocess.PIPE if redirect == "<&-" or line is None else None,
            stderr=subprocess.PIPE,
            check=False,
        )
        assert proc.returncode == 2
        if line is None:  # stderr itself is unusable, and its line may not go to stdout
            assert proc.stdout == b""
        else:
            assert proc.stderr.decode() == line


class TestDispatch:
    """``run`` parses a command's arguments with its subparser alone; each
    argv must get what the root parser gives it."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["rank", "--matroid", U24, "--bogus"], 2),
            (["rank", "--matroid", U24, "x", "y"], 2),
            (["rank", "--matroid", U24, "--", "x"], 2),
            (["-h", "rank"], 0),
            (["rank", "-h"], 0),
            (["--he"], 0),
            (["rank", "--mat", U24], None),
            (["intersect", f"--m1={M1}", "--m2", M2, "--output=out.json"], None),
            (["rank", "--matroid", U24, "--matroid", M1], None),
            (["verify", "--kind", "bogus", "--certificate", "cert.json"], 2),
            (["gen", "--count", "x"], 2),
            (["rank"], 2),
            ([], 2),
            (["frobnicate"], 2),
        ],
        ids=[
            "unknown-option", "stray-positionals", "double-dash", "help-before-command",
            "help-after-command", "help-abbreviation", "option-abbreviation", "equals-forms",
            "repeated-option", "bad-choice", "bad-int", "missing-required", "empty",
            "unknown-command",
        ],
    )
    def test_run_parses_as_the_root_parser_does(self, monkeypatch, capsys, argv, code):
        def outcome(parse):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
            captured = capsys.readouterr()
            return result, captured.out, captured.err

        monkeypatch.setenv("COLUMNS", "80")
        dispatched = outcome(cli._parse_args)
        assert dispatched == outcome(cli.build_parser().parse_args)
        if code is None:
            assert isinstance(dispatched[0], argparse.Namespace)
            assert dispatched[0].command == argv[0]
        else:
            assert dispatched[0] == code
            assert dispatched[1 if code == 0 else 2]


class TestSharedParser:
    """``run`` reuses one parser per process; no request may see another's state."""

    def test_min_rank_does_not_stick(self, capsys):
        _, first = invoke(["intersect", "--m1", M1, "--m2", M2, "--min-rank"], capsys)
        _, second = invoke(["intersect", "--m1", M1, "--m2", M2], capsys)
        assert "min_rank" in json.loads(first)
        assert "min_rank" not in json.loads(second)

    def test_matroid_arguments_do_not_stick(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert run(["intersect", "--m1", M1, "--m2", M2, "--output", str(cert)]) == 0
        code, _ = invoke(
            ["verify", "--kind", "intersection", "--m1", M1, "--m2", M2,
             "--certificate", str(cert)],
            capsys,
        )
        assert code == 0
        menger = tmp_path / "menger.json"
        st = ["--graph", PATH3, "--s", "a", "--t", "c"]
        assert run(["menger", *st, "--output", str(menger)]) == 0
        assert run(["verify", "--kind", "menger", *st, "--certificate", str(menger)]) == 0
        capsys.readouterr()
        code = run(["verify", "--kind", "intersection", "--certificate", str(cert)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: intersection verification needs --m1 and --m2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["union", "--help"],
            ["intersect", "--m1", M1],
            ["frobnicate"],
            [],
            ["gen", "--count", "x"],
        ],
        ids=["help", "union-help", "intersect-usage", "unknown-command", "empty", "bad-int"],
    )
    def test_repeated_calls_match_a_fresh_parser(self, monkeypatch, capsys, argv):
        # The reference is the unshared parser, built anew for the one call.
        def outcome():
            code = run(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        monkeypatch.setenv("COLUMNS", "80")
        shared = [outcome(), outcome()]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = outcome()
        assert shared == [fresh, fresh]
        assert fresh[0] == (0 if "--help" in argv else 2)
        assert fresh[1] or fresh[2]

    def test_help_follows_the_terminal_width_of_each_call(self, monkeypatch, capsys):
        widths = {}
        for columns in ("60", "200", "60"):
            monkeypatch.setenv("COLUMNS", columns)
            assert run(["verify", "--help"]) == 0
            out = capsys.readouterr().out
            assert widths.setdefault(columns, out) == out
        assert widths["60"] != widths["200"]

    def test_parser_is_built_once_per_process(self, monkeypatch, tmp_path, capsys):
        # One root parser plus one per subcommand, however many requests
        # follow.  Building the parser per request would count 20 times that.
        built = 0
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        cert = tmp_path / "cert.json"
        requests = [
            ["intersect", "--m1", M1, "--m2", M2, "--output", str(cert)],
            ["verify", "--kind", "intersection", "--m1", M1, "--m2", M2,
             "--certificate", str(cert)],
            ["union", "--m1", M1, "--m2", M2],
            ["rank", "--matroid", U24],
            ["menger", "--graph", PATH3, "--s", "a", "--t", "c"],
            ["gen", "--count", "1"],
            ["--help"],
            ["rank"],
            ["frobnicate"],
            ["rank", "--matroid", U24, "--set", "zz"],
        ] * 2
        codes = [run(argv) for argv in requests]
        capsys.readouterr()
        assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 2, 2] * 2
        assert built <= 9, f"{built} argparse parsers built for {len(requests)} requests"
        assert cli.build_parser() is cli.build_parser()


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

    def test_menger_dot_draws_each_step_on_its_least_id_edge(self):
        """a-b and b-c are each doubled, the later copy written reversed."""
        graph = Multigraph.from_labels(
            ["a", "b", "c"],
            [("p0", "a", "b"), ("p1", "b", "a"), ("p2", "c", "b"), ("p3", "b", "c")],
        )
        inst = MengerInstance.from_labels(graph, ["a"], ["c"])
        drawn = [line for line in menger_dot(inst, solve(inst)).splitlines() if "--" in line]
        assert [("color=red" in line) for line in drawn] == [True, False, True, False]

    def test_menger_dot_colors_exactly_the_path_edges_of_a_grid(self):
        """The 8 x 8 grid's paths are its rows, so the drawing colors every
        horizontal edge once and no vertical one."""
        inst = grid_instance(8)
        drawn = [line for line in menger_dot(inst, solve(inst)).splitlines() if "--" in line]
        colored = sorted(line.split('"')[1] for line in drawn if "penwidth=2" in line)
        assert colored == sorted(f"h{r}.{c}" for r in range(8) for c in range(7))

    def test_intersect_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "out.dot"
        code, _ = invoke(
            ["intersect", "--m1", M1, "--m2", M2, "--dot", str(dot_path)], capsys
        )
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph exchange {")
        assert "fillcolor=lightblue" in text


class TestOutputFiles:
    """``--output`` and ``--dot`` overwrite a file in place and cut it to the
    new length; devices are written without the cut."""

    MENGER = ["menger", "--graph", PATH3, "--s", "a", "--t", "c"]

    def test_shorter_output_leaves_no_stale_tail(self, tmp_path, capsys):
        code, expected = invoke(["rank", "--matroid", TRIANGLE], capsys)
        assert code == 0
        target = tmp_path / "out.json"
        target.write_text("x" * 10_000 + "\n")
        assert run(["rank", "--matroid", TRIANGLE, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == expected.encode()

    def test_shorter_dot_leaves_no_stale_tail(self, tmp_path, capsys):
        fresh, target = tmp_path / "fresh.dot", tmp_path / "out.dot"
        assert run(self.MENGER + ["--dot", str(fresh)]) == 0
        target.write_text("x" * 10_000 + "\n")
        assert run(self.MENGER + ["--dot", str(target)]) == 0
        capsys.readouterr()
        assert target.read_bytes() == fresh.read_bytes()

    def test_new_file_takes_its_mode_from_the_umask(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        old = os.umask(0o027)
        try:
            assert run(["rank", "--matroid", TRIANGLE, "--output", str(target)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_is_written_without_truncation(self, capsys):
        assert run(["rank", "--matroid", TRIANGLE, "--output", "/dev/null"]) == 0
        assert run(self.MENGER + ["--dot", "/dev/null", "--output", "/dev/null"]) == 0
        captured = capsys.readouterr()
        assert captured.out == captured.err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_failed_write_exits_two_with_one_line(self, capsys):
        code = run(["rank", "--matroid", TRIANGLE, "--output", "/dev/full"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write /dev/full: ")
        assert captured.err.count("\n") == 1

    def test_read_only_output_exits_two_with_one_line(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        target.chmod(0o444)
        if os.access(target, os.W_OK):
            pytest.skip("this user writes through file modes")
        code = run(["rank", "--matroid", TRIANGLE, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert captured.err.count("\n") == 1
        assert target.read_text() == "old\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_rewrites_leave_no_open_file(self, tmp_path, capsys):
        cert, drawing = tmp_path / "cert.json", tmp_path / "out.dot"
        argv = self.MENGER + ["--output", str(cert), "--dot", str(drawing)]
        assert run(argv) == 0
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(100):  # 200 rewrites, of --output and --dot
            assert run(argv) == 0
        capsys.readouterr()
        assert len(os.listdir("/proc/self/fd")) == before


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


class TestGenCorpusBytes:
    """Every output byte of ``intersect``, ``union`` and ``menger`` on a seeded
    ``gen`` corpus, pinned as one digest."""

    # sha256 over the corpus below, recorded before the native circuit and
    # closure oracles and the single-pass union scan went in.
    DIGEST = "6a16b3fe6fe364f75ece191a9ae926f7bdeb6bcf56cc8512b3e89924141ffdcc"

    def _corpus_outputs(self, tmp_path, capsys):
        def emit(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return f"{argv[0]} {code}\n{captured.out}{captured.err}".encode()

        chunks = []
        assert run(["gen", "--kind", "pairs", "--seed", "7", "--count", "40"]) == 0
        pairs = json.loads(capsys.readouterr().out)["instances"]
        for i, pair in enumerate(pairs):
            m1, m2 = tmp_path / f"m1_{i}.json", tmp_path / f"m2_{i}.json"
            m1.write_text(json.dumps(pair["m1"]))
            m2.write_text(json.dumps(pair["m2"]))
            chunks.append(emit(["intersect", "--m1", str(m1), "--m2", str(m2)]))
            chunks.append(emit(["union", "--m1", str(m1), "--m2", str(m2)]))
        assert run(["gen", "--kind", "menger", "--seed", "7", "--count", "20"]) == 0
        graphs = json.loads(capsys.readouterr().out)["instances"]
        for i, inst in enumerate(graphs):
            graph = tmp_path / f"g_{i}.json"
            graph.write_text(json.dumps(inst["graph"]))
            s, t = ",".join(inst["s"]), ",".join(inst["t"])
            chunks.append(emit(["menger", "--graph", str(graph), "--s", s, "--t", t]))
        return b"".join(chunks)

    def test_outputs_match_the_recorded_digest(self, tmp_path, capsys):
        digest = hashlib.sha256(self._corpus_outputs(tmp_path, capsys)).hexdigest()
        assert digest == self.DIGEST, (
            "CLI output changed on the seed-7 gen corpus; an intended change must be "
            "recorded in CHANGES.md together with the new digest"
        )


class TestGenCorpusDotAndVerifyBytes:
    """The ``--dot`` drawings of ``intersect`` and ``menger`` and the ``verify``
    verdict on every certificate they emit over the seed-7 ``gen`` corpus,
    pinned as one digest.  Each Menger certificate is also verified with its
    first path and that path's separator vertex dropped: a maximum set of
    paths less one cannot separate, so this pins the failing separation
    check as well."""

    # sha256 over the corpus below, recorded before the traversals of
    # union, intersection and menger moved onto graphs.breadth_first.
    DIGEST = "40d9fc5e7bab27814f82a8539daf1f2288b8a14720f959a051585d78660d64b2"

    def _corpus_outputs(self, tmp_path, capsys):
        def emit(argv, *files):
            code = run(argv)
            captured = capsys.readouterr()
            written = b"".join(f.read_bytes() for f in files)
            return f"{argv[0]} {code}\n{captured.out}{captured.err}".encode() + written

        chunks = []
        cert, drawing = tmp_path / "cert.json", tmp_path / "out.dot"
        assert run(["gen", "--kind", "pairs", "--seed", "7", "--count", "40"]) == 0
        pairs = json.loads(capsys.readouterr().out)["instances"]
        for i, pair in enumerate(pairs):
            m1, m2 = tmp_path / f"m1_{i}.json", tmp_path / f"m2_{i}.json"
            m1.write_text(json.dumps(pair["m1"]))
            m2.write_text(json.dumps(pair["m2"]))
            chunks.append(emit(
                ["intersect", "--m1", str(m1), "--m2", str(m2), "--dot", str(drawing),
                 "--output", str(cert)],
                drawing, cert,
            ))
            chunks.append(emit(
                ["verify", "--kind", "intersection", "--m1", str(m1), "--m2", str(m2),
                 "--certificate", str(cert)]
            ))
        assert run(["gen", "--kind", "menger", "--seed", "7", "--count", "20"]) == 0
        graphs = json.loads(capsys.readouterr().out)["instances"]
        for i, inst in enumerate(graphs):
            graph = tmp_path / f"g_{i}.json"
            graph.write_text(json.dumps(inst["graph"]))
            s, t = ",".join(inst["s"]), ",".join(inst["t"])
            chunks.append(emit(
                ["menger", "--graph", str(graph), "--s", s, "--t", t, "--dot", str(drawing),
                 "--output", str(cert)],
                drawing, cert,
            ))
            verify = ["verify", "--kind", "menger", "--graph", str(graph), "--s", s,
                      "--t", t, "--certificate", str(cert)]
            chunks.append(emit(verify))
            payload = json.loads(cert.read_text())
            if payload["paths"]:
                dropped = payload["paths"].pop(0)
                payload["separator"] = [v for v in payload["separator"] if v not in dropped]
                payload["count"] -= 1
                cert.write_text(json.dumps(payload))
                chunks.append(emit(verify))
        return b"".join(chunks)

    def test_outputs_match_the_recorded_digest(self, tmp_path, capsys):
        digest = hashlib.sha256(self._corpus_outputs(tmp_path, capsys)).hexdigest()
        assert digest == self.DIGEST, (
            "dot or verify output changed on the seed-7 gen corpus; an intended change "
            "must be recorded in CHANGES.md together with the new digest"
        )
