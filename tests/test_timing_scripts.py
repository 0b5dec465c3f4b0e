import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    """``(check_times, lift_times)``, imported with ``scripts/`` on the
    path; the path is restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])
    return (importlib.import_module("check_times"),
            importlib.import_module("lift_times"))


def check_run(probe_of):
    """A run of ``check_times`` in which each check took 1 s, made no
    sweep, no pack and no elimination and had the probe
    ``probe_of[name]`` before it."""
    return {"times": dict.fromkeys(probe_of, 1.0),
            "sweeps": dict.fromkeys(probe_of, 0),
            "packs": dict.fromkeys(probe_of, 0),
            "eliminations": dict.fromkeys(probe_of, 0),
            "check_probes": {name: [p] for name, p in probe_of.items()},
            "violations": 0}


def run_child(script):
    """One run of ``script --child --seed 7`` in a fresh process, with the
    checkout's ``src/`` on its path, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return json.loads(subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--child", "--seed", "7"],
        env=env, check=True, capture_output=True, text=True).stdout)


@pytest.fixture(scope="module")
def child_run():
    """One run of ``check_times.py --child --seed 7``, as JSON."""
    return run_child("check_times.py")


class TestCheckTimes:
    def test_each_check_records_its_own_probe(self, child_run):
        """One run of the child gives every timed check the probe taken
        just before it, and counts those probes among the run's."""
        run = child_run
        checks = set(run["times"]) - {"import", "full_report"}
        assert "check_fan" in checks
        assert set(run["check_probes"]) == checks
        for probes in run["check_probes"].values():
            assert len(probes) == 1 and probes[0] > 0
            assert probes[0] in run["probes"]

    def test_sweeps_are_counted_per_check(self, child_run):
        """The report's sweep budget, the same on any host: one per fan
        region in the fan build, the lower envelopes of the 3 ray orbits'
        representatives in Table 1 and of the 7 cone orbits'
        representatives in the cone proofs, every other ray and cone
        moved from its representative, four hulls of the interior
        samples, none in any other check, and ``full_report``'s count is
        their sum."""
        sweeps = dict(child_run["sweeps"])
        assert sweeps.pop("full_report") == 62
        assert set(sweeps) == set(child_run["check_probes"])
        assert {name: n for name, n in sweeps.items() if n} == {
            "check_fan": 48, "check_table1": 3, "check_cone_proofs": 7,
            "check_interior_point_stability": 4}

    def test_packs_are_counted_per_check(self, child_run):
        """The report's packings, the same on any host: the point located
        in the fan check, the 20 batches of the covering check, and each
        of the 48 cones' certificates once, in the cone proofs, where
        each cone is certified once.  The interior check certifies the
        same 48 certificates and packs none of them again."""
        packs = dict(child_run["packs"])
        assert packs.pop("full_report") == 69
        assert set(packs) == set(child_run["check_probes"])
        assert {name: n for name, n in packs.items() if n} == {
            "check_fan": 1, "check_cone_proofs": 48,
            "check_fan_covering": 20}

    def test_eliminations_are_counted_per_check(self, child_run):
        """The report's exact eliminations, the same on any host: the
        affine frame of Delta(3, 6)'s vertices, kept for every later
        envelope, in Table 1, and one per distinct cell of the canonical
        subdivisions in the cone proofs, 48; the ranks and frames of every
        other check are cached or settled without one."""
        eliminations = dict(child_run["eliminations"])
        assert eliminations.pop("full_report") == 49
        assert set(eliminations) == set(child_run["check_probes"])
        assert {name: n for name, n in eliminations.items() if n} == {
            "check_table1": 1, "check_cone_proofs": 48}

    def test_summary_requires_equal_sweep_counts(self, scripts):
        check_times, _ = scripts
        runs = [check_run({"check_fan": 0.001}) for _ in range(3)]
        assert check_times.summary(runs)["sweeps"] == {"check_fan": 0}
        runs[1]["sweeps"]["check_fan"] = 1
        with pytest.raises(RuntimeError, match="numbers of sweeps"):
            check_times.summary(runs)

    def test_summary_requires_equal_pack_counts(self, scripts):
        check_times, _ = scripts
        runs = [check_run({"check_fan": 0.001}) for _ in range(3)]
        assert check_times.summary(runs)["packs"] == {"check_fan": 0}
        runs[2]["packs"]["check_fan"] = 1
        with pytest.raises(RuntimeError, match="numbers of packs"):
            check_times.summary(runs)

    def test_summary_requires_equal_elimination_counts(self, scripts):
        check_times, _ = scripts
        runs = [check_run({"check_fan": 0.001}) for _ in range(3)]
        assert check_times.summary(runs)["eliminations"] == {"check_fan": 0}
        runs[0]["eliminations"]["check_fan"] = 1
        with pytest.raises(RuntimeError, match="numbers of eliminations"):
            check_times.summary(runs)

    def test_summary_keeps_each_checks_probe(self, scripts):
        """Each check's probe is the median of its own probes over the
        runs, not of the run's."""
        check_times, _ = scripts
        runs = [check_run({"check_fan": f, "check_table1": t})
                for f, t in ((0.001, 0.004), (0.002, 0.005), (0.009, 0.006))]
        assert check_times.summary(runs)["check_probe_s"] == \
            {"check_fan": 0.002, "check_table1": 0.005}


class TestLiftTimes:
    def test_summary_has_the_median_setup(self, scripts):
        _, lift_times = scripts
        layers = dict.fromkeys(lift_times.LAYERS, 1.0)
        runs = [{**dict.fromkeys((*lift_times.KINDS, "op_ms_p90"), layers),
                 **dict.fromkeys(lift_times.COUNTS, 3), "setup_ms": ms}
                for ms in (90.0, 70.0, 120.0)]
        assert lift_times.summary(runs)["setup_ms"] == 90.0

    def test_counts_of_the_seed_7_lifts(self):
        """One cold run of ``lift_times.py --child --seed 7``: after the
        set-up, the 80 lifts make 77 exact ranks and 7 face counts, and
        153 of their cells are matroidal.  Only a shared vertex set that
        fails basis exchange is ranked; the others, faces of two matroid
        cells, take their dimension from the exchange classes."""
        run = run_child("lift_times.py")
        assert {k: run[k] for k in ("ranked", "fvectors", "matroidal")} \
            == {"ranked": 77, "fvectors": 7, "matroidal": 153}
