import csv
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from collections import Counter

import pytest

import tropd4
import tropd4.correspondence as correspondence
import tropd4.reference as reference
import tropd4.verify as verify
from tropd4.cli import build_parser, main
from tropd4.correspondence import classify_all_cones
from tropd4.hypersimplex import (
    canonical_point,
    canonical_subdivision,
    subdivision_to_json,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines():
    """Every ``tropd4 ...`` command in the README's shell blocks and inline
    code, as argument lists without the program name."""
    text = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [l for b in blocks for l in b.splitlines()]
    lines += re.findall(r"`(tropd4 [^`]+)`", text)
    return [shlex.split(l, comments=True)[1:] for l in dict.fromkeys(lines)
            if l.startswith("tropd4 ")]


# md5 of stdout for commands whose output must stay byte-identical; the
# verify-all report lists only violations, so it does not depend on the seed
PINNED_STDOUT = {
    "--seed 7 verify-all": "8c0d6b07fbad2b77577ff4c45a378cf0",
    "--seed 0 verify-all": "8c0d6b07fbad2b77577ff4c45a378cf0",
    "fan": "ba1b65724def6ed7caacb7b2dd49d162",
    "table1 --format csv": "1807bcb8980d3fe2d11ba6c0a01318b5",
    "table2 --format csv": "06ed8404fcb28c6092705cdd1b1f4849",
    "classify-clusters": "fb540201009282746ba66b9252cbb8c3",
    # one representative cone per plane type
    "subdivision --cone r3,r9,r10,r12": "621c6d0e56839405e5aaf2ca409efea1",
    "subdivision --cone r3,r4,r6,r15": "0d87321e988ac71410532f8df3af21f7",
    "subdivision --cone r2,r5,r8,r14": "066ac8056f98bb1ba7519907909f3222",
    "subdivision --cone r5,r9,r12,r13": "3b3275a8916cc9556dd3dda63b78ff6c",
    "subdivision --cone r8,r9,r10,r15": "5f07eb38de99c7455af4be1f5731f616",
    "subdivision --cone r4,r8,r10,r15,r16": "fdbd1769a443a117285d1c60706c17ae",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("command", PINNED_STDOUT)
def test_pinned_stdout(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == PINNED_STDOUT[command]


class TestEnumerate:
    def test_text(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-n", "4")
        assert code == 0
        assert out.startswith("50 pseudotriangulations")
        assert len(out.strip().splitlines()) == 51

    def test_json(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-n", "3", "--format", "json")
        data = json.loads(out)
        assert data["count"] == 14
        assert len(data["pseudotriangulations"]) == 14

    def test_dot_edges(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-n", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("graph")
        assert sum(1 for line in out.splitlines() if " -- " in line) == 100

    def test_bad_n_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-n", "2"])
        assert exc.value.code == 2


class TestFan:
    def test_json_fields(self, capsys):
        code, out = run_cli(capsys, "fan")
        data = json.loads(out)
        assert data["f_vector"] == [16, 66, 98, 48]
        assert data["rays"][0] == [0, 0, 1, 0]
        assert sorted(map(sorted, data["bipyramids"])) == sorted(
            map(sorted, [[0, 4, 6, 10, 12], [3, 7, 9, 14, 15]]))

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        code, _ = run_cli(capsys, "--output", str(path), "fan")
        assert code == 0
        assert json.loads(path.read_text())["f_vector"] == [16, 66, 98, 48]
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("target", ["missing/fan.json", "taken"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        (tmp_path / "taken").mkdir()  # a directory where the file would go
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(tmp_path / target), "fan"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "cannot write" in captured.err
        assert "Traceback" not in captured.err
        # no partial file and no temporary file is left behind
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]


class TestSubdivision:
    def test_known_cone(self, capsys):
        code, out = run_cli(capsys, "subdivision", "--cone", "r3,r9,r10,r12")
        data = json.loads(out)
        assert code == 0
        assert data["plane_type"] == "EEEG"
        assert len(data["cells"]) == 6

    def test_every_cone_reads_its_canonical_subdivision(self, capsys):
        """For each of the 48 cones the command prints the cached canonical
        subdivision, the canonical point, and the type of the 48-cone
        classification."""
        types = classify_all_cones()
        for plane_type, cones in reference.TABLE1.items():
            for labels in cones:
                rays = reference.ray_set(labels)
                expected = subdivision_to_json(canonical_subdivision(rays))
                expected["cone"] = sorted(labels, key=lambda l: int(l[1:]))
                expected["interior_point"] = list(canonical_point(rays))
                expected["plane_type"] = types[rays]
                code, out = run_cli(capsys, "subdivision", "--cone",
                                    ",".join(labels))
                assert code == 0
                assert out == json.dumps(expected, indent=2,
                                         sort_keys=True) + "\n"
                assert expected["plane_type"] == plane_type

    def test_unknown_label(self, capsys):
        code = main(["subdivision", "--cone", "r99"])
        assert code == 2

    def test_not_a_cone(self, capsys):
        code = main(["subdivision", "--cone", "r1,r2,r3,r4"])
        assert code == 2

    def test_repeated_label(self, capsys):
        code = main(["subdivision", "--cone", "r3,r9,r10,r12,r12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "repeated ray labels: r12\n"

    @pytest.mark.parametrize("cone", ["r3,r9,,r10,r12", "r3,r9,r10,r12,",
                                      ",r3,r9,r10,r12", "r3, ,r9,r10,r12"])
    def test_empty_label(self, capsys, cone):
        code = main(["subdivision", "--cone", cone])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"empty ray label in {cone!r}\n"

    @pytest.mark.parametrize("cone", ["", ",", " , "])
    def test_no_labels(self, capsys, cone):
        code = main(["subdivision", "--cone", cone])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "no ray labels given\n"

    def test_reader_closing_early_exits_0(self):
        # The test closes its end of the pipe before the command writes,
        # so the write meets a closed pipe, as under ``| head -3``.
        src = str(pathlib.Path(tropd4.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "tropd4.cli", "subdivision", "--cone",
             "r3,r9,r10,r12"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


class TestTables:
    def test_table1_csv(self, capsys):
        code, out = run_cli(capsys, "table1", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 48
        assert {r["type"] for r in rows} == set(reference.PLANE_TYPES)

    def test_table2_csv(self, capsys):
        code, out = run_cli(capsys, "table2", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sum(int(r["count"]) for r in rows) == 50

    def test_classify_clusters(self, capsys):
        code, out = run_cli(capsys, "classify-clusters")
        data = json.loads(out)
        assert [c["class"] for c in data["classes"]] == \
            [f"T{i}" for i in range(1, 8)]
        assert sum(c["size"] for c in data["classes"]) == 50


class TestVerifyAll:
    ARGS = ("verify-all", "--samples-per-cone", "2", "--cover-samples", "200")

    def test_passes(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        assert report["fvectors"] == {"fan": [16, 66, 98, 48],
                                      "cluster_complex": [16, 66, 100, 50]}
        assert len(report["tables"]["table1"]) == 48

    def test_no_samples_per_cone(self, capsys):
        """``--samples-per-cone 0`` draws no sample and certifies no
        batch; the run passes with the default run's tables and
        f-vectors."""
        code, out = run_cli(capsys, "verify-all", "--samples-per-cone", "0")
        _, default = run_cli(capsys, "verify-all")
        report, expected = json.loads(out), json.loads(default)
        assert code == 0 and report["violations"] == []
        assert (report["tables"], report["fvectors"]) == \
            (expected["tables"], expected["fvectors"])

    def test_seed_does_not_change_tables(self, capsys):
        _, out7 = run_cli(capsys, "--seed", "7", *self.ARGS)
        _, out8 = run_cli(capsys, "--seed", "8", *self.ARGS)
        t7 = json.loads(out7)["tables"]
        t8 = json.loads(out8)["tables"]
        assert t7 == t8

    def test_fixed_seed_is_byte_stable(self, capsys):
        _, first = run_cli(capsys, "--seed", "7", *self.ARGS)
        _, second = run_cli(capsys, "--seed", "7", *self.ARGS)
        assert first == second

    def test_swapped_types_fail_with_a_report(self, capsys,
                                              swapped_eeff_types):
        """Two orbits that match no row of Table 2 give a report with exit
        code 1, not a traceback.  The two retyped cones' signatures are
        not those of their new types."""
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 1
        checks = [v["check"] for v in json.loads(out)["violations"]]
        assert {c: checks.count(c) for c in checks} == {
            "cone type": 2, "class-type incidence": 8,
            "reflection preserves plane type": 20,
            "signature of cone type": 2}

    def test_rejected_canonical_cell_fails_with_a_report(self, capsys,
                                                         monkeypatch, fan36):
        """A canonical cell that fails basis exchange gives a report with
        exit code 1, not a traceback.  Each cone whose canonical
        subdivision holds the cell fails its proof, and the samples whose
        cells hold it fail the sweep."""
        cones = [sorted(c.rays) for c in fan36.maximal_cones]
        counts = Counter(cell for rays in cones
                         for cell in canonical_subdivision(rays))
        chosen = max(counts, key=counts.get)
        real = verify.is_matroid_basis_set
        monkeypatch.setattr(verify, "is_matroid_basis_set",
                            lambda cell: cell != chosen and real(cell))
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 1
        violations = json.loads(out)["violations"]
        assert {v["check"] for v in violations} == {
            "canonical cells matroidal", "matroidal cells"}
        failed = [list(map(list, rays)) for rays in cones
                  if chosen in canonical_subdivision(rays)]
        assert len(failed) == counts[chosen] > 1
        assert [v["cone"] for v in violations
                if v["check"] == "canonical cells matroidal"] == failed
        assert all(v["cone"] in failed for v in violations
                   if v["check"] == "matroidal cells")

    def test_tampered_dictionary_fails_with_diff(self, capsys, monkeypatch):
        """Two swapped roots fail their two dictionary rows and no other
        check, and so does r16's root typed as ``(1, 2, 2, 1)``, which is
        no root, on its one row.  The ray-to-root cache is cleared before
        and after each run, so the run reads the tampered table and later
        tests do not."""
        swapped = dict(reference.PSI_TABLE)
        swapped["r1"], swapped["r2"] = (
            (swapped["r2"][0], swapped["r1"][1]),
            (swapped["r1"][0], swapped["r2"][1]))
        not_a_root = dict(reference.PSI_TABLE)
        not_a_root["r16"] = ((1, 2, 2, 1), not_a_root["r16"][1])
        for tampered, rays in ((swapped, {"r1", "r2"}),
                               (not_a_root, {"r16"})):
            monkeypatch.setattr(reference, "PSI_TABLE", tampered)
            correspondence._psi_maps.cache_clear()
            try:
                code, out = run_cli(capsys, *self.ARGS)
            finally:
                monkeypatch.undo()
                correspondence._psi_maps.cache_clear()
            assert code == 1
            report = json.loads(out)
            rows = [v for v in report["violations"]
                    if v["check"] == "ray dictionary row"]
            assert {v["ray"] for v in rows} == rays
            assert len(rows) == len(rays)
            assert all("computed_root" in v and "expected_root" in v
                       for v in rows)
            assert rows == report["violations"]

    def test_tampered_dictionary_first_on_cold_caches(self):
        """The tampered run, then a clean one, in a fresh process: both
        pass, so the tampered table reaches no cache a later run reads."""
        tests = [f"tests/test_cli.py::TestVerifyAll::{name}" for name in
                 ("test_tampered_dictionary_fails_with_diff", "test_passes")]
        src = str(pathlib.Path(tropd4.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *tests], cwd=README.parent, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
        assert "2 passed" in run.stdout


class TestReadmeCommands:
    # The README's commands, in order, pinned: they are read off its
    # prose, where a rewritten paragraph could drop one unseen.
    COMMANDS = [line.split() for line in (
        "enumerate -n 4", "enumerate -n 4 --format dot", "fan",
        "subdivision --cone r3,r9,r10,r12", "table1 --format csv",
        "table2 --format csv", "classify-clusters", "verify-all --seed 7",
        "--seed 7 verify-all", "verify-all --seed 7", "--seed 11 verify-all")]

    def test_readme_lists_commands(self):
        assert readme_command_lines() == self.COMMANDS

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_parses_with_its_seed(self, argv):
        args = build_parser().parse_args(argv)
        expected = int(argv[argv.index("--seed") + 1]) \
            if "--seed" in argv else 0
        assert args.seed == expected
        assert callable(args.func)


class TestRunOptions:
    def test_seed_before_and_after_command_agree(self):
        before = build_parser().parse_args(["--seed", "7", "verify-all"])
        after = build_parser().parse_args(["verify-all", "--seed", "7"])
        assert vars(before) == vars(after)

    def test_option_after_command_wins(self):
        args = build_parser().parse_args(
            ["--seed", "3", "--output", "a", "fan", "--seed", "5",
             "--output", "b"])
        assert (args.seed, args.output) == (5, "b")

    def test_output_after_command(self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        code, out = run_cli(capsys, "fan", "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["f_vector"] == [16, 66, 98, 48]

    @pytest.mark.parametrize("option", ["--samples-per-cone",
                                        "--cover-samples"])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_sample_count_exits_2(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", option, value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


class TestReproduceTablesScript:
    SCRIPT = README.parent / "scripts" / "reproduce_tables.py"

    @pytest.mark.parametrize("argv,code", [
        (["--help"], 0),
        (["--unknown"], 2),
        (["a", "b"], 2),
    ], ids=["help", "unknown-option", "two-directories"])
    def test_options_make_no_directory(self, tmp_path, argv, code):
        # without tropd4 on the path: usage needs none of it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, str(self.SCRIPT), *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == code
        assert "usage: reproduce_tables.py" in proc.stdout + proc.stderr
        assert list(tmp_path.iterdir()) == []
