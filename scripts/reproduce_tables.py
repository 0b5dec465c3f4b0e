#!/usr/bin/env python3
"""Regenerate every published artifact into OUTDIR, ./artifacts by default.

    python scripts/reproduce_tables.py [OUTDIR]

Writes the fan description, both type tables, the per-cone subdivisions,
the flip graph, and the consolidated verification report.  Everything is
deterministic; rerunning overwrites byte-identical files.
"""

import argparse
import pathlib
import sys


def run(outdir):
    # imported here, so that --help and usage errors need no tropd4
    from tropd4.cli import main as cli_main

    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (["fan"], "fan.json"),
        (["enumerate", "-n", "4", "--format", "dot"], "flip_graph.dot"),
        (["enumerate", "-n", "4", "--format", "json"],
         "pseudotriangulations.json"),
        (["classify-clusters"], "classes.json"),
        (["table1", "--format", "csv"], "table1.csv"),
        (["table2", "--format", "csv"], "table2.csv"),
        (["subdivision", "--cone", "r3,r9,r10,r12"],
         "subdivision_r3_r9_r10_r12.json"),
        (["subdivision", "--cone", "r1,r5,r7,r11,r13"],
         "subdivision_r1_r5_r7_r11_r13.json"),
        (["--seed", "0", "verify-all"], "verification_report.json"),
    ]
    for argv, name in jobs:
        path = outdir / name
        code = cli_main(["--output", str(path)] + argv)
        # Only verify-all, the last job, exits 1: its report is written
        # and lists the failed checks.
        if code not in (0, 1):
            return code
        print(f"wrote {path}")
    print("verification:", "PASS" if code == 0 else "FAIL")
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", type=pathlib.Path,
                        default=pathlib.Path("artifacts"),
                        help="directory for the artifacts "
                             "(default: artifacts)")
    sys.exit(run(parser.parse_args().outdir))
