"""Command-line front end.

Subcommands surface each pipeline stage: ``enumerate`` the
pseudotriangulations, ``classify-clusters`` into the 7 symmetry classes,
``fan`` for the fan of the minors, ``subdivision`` for the matroid
subdivision of a chosen cone, ``table1`` / ``table2`` for the type tables,
and ``verify-all`` to run every check.  Exit codes: 0 success, 1 verification
failure, 2 usage error, including an ``--output`` file that cannot be
written.  A reader that closes stdout early ends the run with exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import reference
from .chords import chord_text
from .clusters import enumerate_pseudotriangulations, flip_graph
from .correspondence import (
    cluster_classes,
    plane_type_split,
    table1_report,
    table2_report,
)
from .fan import compute_fan_f36, fan_to_json
from .hypersimplex import (
    canonical_point,
    canonical_subdivision,
    classify_plane_type,
    subdivision_to_json,
)
from .verify import full_report


def _emit(args, text: str) -> None:
    """Print ``text``, or write it to ``--output`` through a temporary file
    and a rename, so the target is never left half written.  An unwritable
    file ends the run with one line on stderr and exit code 2."""
    if args.output:
        tmp = f"{args.output}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, args.output)
        except OSError as exc:
            print(f"tropd4: cannot write {args.output}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            raise SystemExit(2) from None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _csv(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in fieldnames})
    return buf.getvalue()


def cmd_enumerate(args) -> int:
    n = args.n
    ts = enumerate_pseudotriangulations(n)
    names = [",".join(chord_text(c, n) for c in sorted(t)) for t in ts]
    if args.format == "dot":
        adj = flip_graph(n)
        lines = ["graph flips {"]
        lines += [f'  {i} [label="{name}"];' for i, name in enumerate(names)]
        lines += [f"  {i} -- {j};" for i in sorted(adj)
                  for j in sorted(adj[i]) if i < j]
        lines.append("}")
        _emit(args, "\n".join(lines) + "\n")
    elif args.format == "json":
        _emit(args, _json({"n": n, "count": len(ts),
                           "pseudotriangulations": names}))
    else:
        _emit(args, f"{len(ts)} pseudotriangulations\n" +
              "\n".join(names) + "\n")
    return 0


def cmd_classify_clusters(args) -> int:
    n = 4
    labeled = cluster_classes()
    rows = []
    for label in sorted(labeled):
        orbit = labeled[label]
        rows.append({
            "class": label,
            "size": len(orbit),
            "plane_types": plane_type_split(orbit),
            "members": sorted(",".join(chord_text(c, n) for c in sorted(t))
                              for t in orbit),
        })
    if args.format == "csv":
        flat = [{"class": r["class"], "size": r["size"],
                 "plane_types": ";".join(f"{k}:{v}"
                                         for k, v in r["plane_types"].items())}
                for r in rows]
        _emit(args, _csv(flat, ["class", "size", "plane_types"]))
    else:
        _emit(args, _json({"classes": rows}))
    return 0


def cmd_fan(args) -> int:
    data = fan_to_json()
    _emit(args, _json(data))
    return 0


def cmd_subdivision(args) -> int:
    labels = tuple(l.strip() for l in args.cone.split(","))
    if not all(labels):
        print(f"empty ray label in {args.cone!r}" if any(labels)
              else "no ray labels given", file=sys.stderr)
        return 2
    unknown = [l for l in labels if l not in reference.RAY_COORDS]
    if unknown:
        print(f"unknown ray labels: {', '.join(unknown)}", file=sys.stderr)
        return 2
    repeated = list(dict.fromkeys(l for l in labels if labels.count(l) > 1))
    if repeated:
        print(f"repeated ray labels: {', '.join(repeated)}", file=sys.stderr)
        return 2
    rays = reference.ray_set(labels)
    if all(frozenset(c.rays) != rays for c in compute_fan_f36().maximal_cones):
        print(f"{','.join(labels)} is not a maximal cone of the fan",
              file=sys.stderr)
        return 2
    data = subdivision_to_json(canonical_subdivision(rays))
    data["cone"] = sorted(labels, key=lambda l: int(l[1:]))
    data["interior_point"] = list(canonical_point(rays))
    data["plane_type"] = classify_plane_type(rays)
    _emit(args, _json(data))
    return 0


def cmd_table1(args) -> int:
    rows = [{"rays": " ".join(r["rays"]), "type": r["type"]}
            for r in table1_report()]
    if args.format == "csv":
        _emit(args, _csv(rows, ["rays", "type"]))
    else:
        _emit(args, _json({"table1": rows}))
    return 0


def cmd_table2(args) -> int:
    rows = [{"class": r["class"], "type": r["type"], "count": r["count"]}
            for r in table2_report()]
    if args.format == "csv":
        _emit(args, _csv(rows, ["class", "type", "count"]))
    else:
        _emit(args, _json({"table2": rows}))
    return 0


def cmd_verify_all(args) -> int:
    report = full_report(seed=args.seed,
                         samples_per_cone=args.samples_per_cone,
                         cover_samples=args.cover_samples)
    _emit(args, _json(report))
    return 0 if not report["violations"] else 1


def _sample_count(text: str) -> int:
    """A nonnegative integer; anything else is a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _run_options(seed, output) -> argparse.ArgumentParser:
    """``--seed`` and ``--output``, accepted before and after the command.

    The copies after the command default to ``argparse.SUPPRESS``, so that
    they leave a value given before the command in place.
    """
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seed", type=int, default=seed,
                        help="seed for randomized verification sweeps")
    parser.add_argument("--output", default=output,
                        help="write output to this path")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropd4",
        description="Exact pipeline: pseudotriangulations, the rank-4 "
                    "positive tropical fan, and matroid subdivisions.",
        parents=[_run_options(0, None)])
    sub = parser.add_subparsers(dest="command", required=True)
    options = _run_options(argparse.SUPPRESS, argparse.SUPPRESS)

    def command(name, func, formats, **kwargs):
        p = sub.add_parser(name, parents=[options], **kwargs)
        p.add_argument("--format", default=formats[0], choices=formats)
        p.set_defaults(func=func)
        return p

    p = command("enumerate", cmd_enumerate, ("text", "json", "dot"),
                help="list pseudotriangulations")
    p.add_argument("-n", type=int, required=True, choices=(3, 4, 5),
                   help="half the polygon size")
    command("classify-clusters", cmd_classify_clusters, ("json", "csv"),
            help="the 7 symmetry classes with plane-type splits")
    command("fan", cmd_fan, ("json",),
            help="rays, cones, and f-vector of the fan")
    p = command("subdivision", cmd_subdivision, ("json",),
                help="matroid subdivision induced by one maximal cone")
    p.add_argument("--cone", required=True,
                   help="comma-separated ray labels, e.g. r3,r9,r10,r12")
    command("table1", cmd_table1, ("json", "csv"),
            help="plane type of each maximal cone")
    command("table2", cmd_table2, ("json", "csv"),
            help="class-by-type incidence counts")
    p = command("verify-all", cmd_verify_all, ("json",),
                help="run every verification check")
    p.add_argument("--samples-per-cone", type=_sample_count, default=20)
    p.add_argument("--cover-samples", type=_sample_count, default=10000)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does; that ends the
        # run with success.  Stdout now points at devnull, so the flush at
        # exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
