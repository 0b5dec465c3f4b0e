import importlib.util
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(side, pair, **values):
    return {"side": side, "pair": pair, "seed": 100 + pair,
            "metrics": {name: {"value": v} for name, v in values.items()}}


class TestBenchPairs:
    def test_summary_of_synthetic_pairs(self):
        """Medians and inclusive quartiles per side, the change of the
        medians, the pairs won in the metric's better direction, and an
        unpaired run left out."""
        bench = load_script()
        parent = [4.0, 2.0, 3.0, 5.0, 1.0]
        change = [3.0, 2.5, 2.0, 4.0, 0.5]
        records = [record("parent", k, op_ms_p50=p, ops_per_s=1000 / p)
                   for k, p in enumerate(parent)]
        records += [record("change", k, op_ms_p50=c, ops_per_s=1000 / c)
                    for k, c in enumerate(change)]
        records.append(record("parent", 5, op_ms_p50=99.0, ops_per_s=1.0))
        lines = bench.summarize(records, [("op_ms_p50", "ms", "lower"),
                                          ("ops_per_s", "1/s", "higher")])
        assert lines == [
            "op_ms_p50 3.000 [2.000\N{EN DASH}4.000] \N{RIGHTWARDS ARROW} "
            "2.500 [2.000\N{EN DASH}3.000] ms, \N{MINUS SIGN}16.7 %, 4/5; "
            "gap 0.5000, parent quartile distance 2.000",
            "ops_per_s 333.3 [250.0\N{EN DASH}500.0] \N{RIGHTWARDS ARROW} "
            "400.0 [333.3\N{EN DASH}500.0] 1/s, +20.0 %, 4/5; "
            "gap 66.67, parent quartile distance 250.0",
        ]

    def test_large_and_small_values_and_ties(self):
        """Thousands separators from 1,000 up, no exponent below 0.001,
        and a tie won by neither side."""
        bench = load_script()
        records = [record("parent", 0, ops_per_s=16400.0, ok_ratio=1.0,
                          wall_s=0.05813),
                   record("change", 0, ops_per_s=16120.0, ok_ratio=1.0,
                          wall_s=0.0580793)]
        assert bench.summarize(records, [("ops_per_s", "1/s", "higher"),
                                         ("ok_ratio", "ratio", "higher"),
                                         ("wall_s", "s", "lower")]) \
            == ["ops_per_s 16,400.0 [16,400.0\N{EN DASH}16,400.0] "
                "\N{RIGHTWARDS ARROW} 16,120.0 [16,120.0\N{EN DASH}16,120.0] "
                "1/s, \N{MINUS SIGN}1.7 %, 0/1; gap 280.0, parent quartile "
                "distance 0",
                "ok_ratio 1.000 [1.000\N{EN DASH}1.000] \N{RIGHTWARDS ARROW} "
                "1.000 [1.000\N{EN DASH}1.000] ratio, +0.0 %, 0/1; gap 0, "
                "parent quartile distance 0",
                "wall_s 0.05813 [0.05813\N{EN DASH}0.05813] "
                "\N{RIGHTWARDS ARROW} 0.05808 [0.05808\N{EN DASH}0.05808] s, "
                "\N{MINUS SIGN}0.1 %, 1/1; gap 0.00005070, parent quartile "
                "distance 0"]

    def test_help_exits_zero(self):
        out = subprocess.run([sys.executable, str(SCRIPT), "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("usage:")
        assert "--parent" in out.stdout


class TestByOrder:
    def test_ratios_split_by_the_side_that_ran_first(self):
        """Even pairs ran the parent first and odd pairs the change: the
        median change/parent ratio of each, its pair count, an unpaired
        run left out, and a parent of 0 giving no ratio."""
        bench = load_script()
        parent = [1.0, 2.0, 4.0, 1.0, 2.0, 0.0]
        change = [1.1, 1.8, 4.8, 0.9, 2.4, 3.0]
        records = [record("parent", k, wall_s=p, ok_ratio=1.0)
                   for k, p in enumerate(parent)]
        records += [record("change", k, wall_s=c, ok_ratio=1.0)
                    for k, c in enumerate(change)]
        records.append(record("change", 6, wall_s=9.0, ok_ratio=1.0))
        lines = bench.by_order(records, [("wall_s", "s", "lower"),
                                         ("ok_ratio", "ratio", "higher")])
        assert lines == [
            "wall_s change/parent: parent first 1.200 (3), "
            "change first 0.900 (2)",
            "ok_ratio change/parent: parent first 1.000 (3), "
            "change first 1.000 (3)",
        ]

    def test_one_pair_has_no_change_first_ratio(self):
        bench = load_script()
        records = [record("parent", 0, op_ms_p50=2.0),
                   record("change", 0, op_ms_p50=1.0)]
        assert bench.by_order(records, [("op_ms_p50", "ms", "lower")]) == [
            "op_ms_p50 change/parent: parent first 0.500 (1), "
            "change first none (0)"]
