"""Command-line surface: compute, verify, search, table.

Exit codes are a contract: 0 for success / PASS, 1 for FAIL, 2 for
operational errors (bad input, out-of-range parameters, exceeded budget)
and for PARTIAL verification coverage.  All file output is UTF-8 with LF
line endings; reports are byte-identical across runs except for the
trailing elapsed-seconds footer.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import enumeration as enum
from .enumeration import DEFAULT_BUDGET
from .families import FamilySpec, build, closed_form_kf, parse_family
from .graphs import Graph, graph6_decode, parse_edge_list
from .spectral import (
    ConvergenceFailureError,
    kf_spectral,
    laplacian_spectrum,
    resistance_matrix,
    tree_count,
    wiener,
)
from .verify import (
    extremal_search,
    format_exact,
    format_real,
    render_report,
    verify_theorem,
    THEOREM_IDS,
)

# Families the table command can sweep over a vertex-count range.
TABLE_FAMILIES: dict[str, callable] = {
    "path": lambda n: FamilySpec("path", (n,)),
    "cycle": lambda n: FamilySpec("cycle", (n,)),
    "complete": lambda n: FamilySpec("complete", (n,)),
    "p3": lambda n: FamilySpec("lollipop", (n, 3)),
    "p4": lambda n: FamilySpec("lollipop", (n, 4)),
    "p5": lambda n: FamilySpec("lollipop", (n, 5)),
    "q3": lambda n: FamilySpec("q3", (n,)),
    "r3": lambda n: FamilySpec("r3", (n,)),
    "c31": lambda n: FamilySpec("tripath", (n, (1, n - 4))),
    "c32": lambda n: FamilySpec("tripath", (n, (2, n - 5))),
    "c33": lambda n: FamilySpec("dumbbell", (3, 3, n - 5)),
    "t421": lambda n: FamilySpec("starlike", (n, (n - 4, 2, 1))),
    "t531": lambda n: FamilySpec("starlike", (n, (n - 5, 3, 1))),
    "t641": lambda n: FamilySpec("starlike", (n, (n - 6, 4, 1))),
    "b1221": lambda n: FamilySpec("doublebranch", (n, (1, 1), (2, 1))),
}


class CliError(Exception):
    """Operational error; message printed to stderr, exit code 2."""


def _write_output(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_graph(args) -> Graph:
    sources = [args.graph6, args.edgelist, args.family]
    if sum(s is not None for s in sources) != 1:
        raise CliError("exactly one of --graph6, --edgelist, --family is required")
    if args.graph6 is not None:
        return graph6_decode(args.graph6)
    if args.edgelist is not None:
        try:
            with open(args.edgelist, "r", encoding="utf-8") as fh:
                return parse_edge_list(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read {args.edgelist}: {exc}")
    return build(parse_family(args.family))


def _cmd_compute(args) -> int:
    g = _load_graph(args)
    wanted = [
        name
        for name in ("kf", "wiener", "spectrum", "trees", "resistance")
        if getattr(args, name)
    ]
    if not wanted:
        raise CliError("select at least one of --kf --wiener --spectrum --trees --resistance")
    lines = [f"graph: n={g.n} m={g.m}"]
    for name in wanted:
        if name == "kf":
            lines.append(f"kf = {format_real(kf_spectral(g))}")
        elif name == "wiener":
            lines.append(f"wiener = {wiener(g)}")
        elif name == "spectrum":
            values = ", ".join(format_real(v) for v in laplacian_spectrum(g).values)
            lines.append(f"spectrum = {values}")
        elif name == "trees":
            lines.append(f"trees = {tree_count(g)}")
        elif name == "resistance":
            r = resistance_matrix(g)
            lines.append("resistance:")
            for row in r.r:
                lines.append("  " + " ".join(format_real(v) for v in row))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    params: dict = {}
    for name in ("n", "p", "m", "trials", "seed"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.girths is not None:
        try:
            params["girths"] = tuple(int(x) for x in args.girths.split(","))
        except ValueError:
            raise CliError(f"bad --girths value {args.girths!r}")
    report = verify_theorem(args.theorem, params, budget=args.budget, jobs=args.jobs)
    _write_output(render_report(report), args.out)
    if report.status == "PASS":
        return 0
    if report.status == "FAIL":
        return 1
    return 2


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
        return a, b
    except ValueError:
        raise CliError(f"{what} expects 'a,b', got {text!r}")


def _cmd_search(args) -> int:
    sources = [args.deleted_edges, args.trees, args.connected]
    if sum(s is not None for s in sources) != 1:
        raise CliError("exactly one of --deleted-edges, --trees, --connected is required")
    if args.deleted_edges is not None:
        n, p = _parse_pair(args.deleted_edges, "--deleted-edges")
        spec = enum.deleted_edges(n, p)
    elif args.trees is not None:
        spec = enum.labeled_trees(args.trees)
    else:
        n, m = _parse_pair(args.connected, "--connected")
        spec = enum.connected_with_edges(n, m)
    if args.min == args.max:
        raise CliError("exactly one of --min, --max is required")
    objective = "min" if args.min else "max"
    witnesses = extremal_search(spec, objective, args.top, budget=args.budget, jobs=args.jobs)
    if not witnesses:
        raise CliError(f"no connected member in the {spec.mode} space: nothing to rank")
    lines = ["rank,graph6,kf,count"]
    for w in witnesses:
        lines.append(f"{w.rank},{w.graph6},{format_real(w.kf)},{w.count}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise CliError(f"bad range {text!r}, expected like 5..7")
        if hi < lo:
            raise CliError(f"empty range {text!r}: {hi} is below {lo}")
        return range(lo, hi + 1)
    try:
        value = int(text)
        return range(value, value + 1)
    except ValueError:
        raise CliError(f"bad range {text!r}, expected like 28 or 5..7")


def _cmd_table(args) -> int:
    names = [x.strip() for x in args.families.split(",") if x.strip()]
    unknown = [x for x in names if x not in TABLE_FAMILIES]
    if unknown:
        raise CliError(
            f"unknown table families: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(TABLE_FAMILIES))}"
        )
    rows = ["family,n,closed_form,numeric_kf,abs_diff"]
    for name in names:
        for n in _parse_range(args.n):
            try:
                spec = TABLE_FAMILIES[name](n)
                exact = closed_form_kf(spec)
                if exact is None:
                    print(f"warning: skipping {name} at n={n}: no closed form", file=sys.stderr)
                    continue
                numeric = kf_spectral(build(spec))
            except ValueError as exc:  # FamilyParameterError, or Kf undefined below two vertices
                print(f"warning: skipping {name} at n={n}: {exc}", file=sys.stderr)
                continue
            diff = abs(numeric - float(Fraction(exact)))
            rows.append(
                f"{name},{n},{format_exact(exact)},{format_real(numeric)},{format_real(diff)}"
            )
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchhoff",
        description="Kirchhoff-index engine: invariants, closed forms, exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="invariants of one graph")
    p_compute.add_argument("--graph6", help="graph6 text")
    p_compute.add_argument("--edgelist", help="path to an edge-list file ('n m' header)")
    p_compute.add_argument("--family", help="family spec, e.g. path:4 or starlike:10,(5,3,1)")
    for flag in ("kf", "wiener", "spectrum", "trees", "resistance"):
        p_compute.add_argument(f"--{flag}", action="store_true")
    p_compute.add_argument("--out", help="also write the report to this path")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run one theorem verifier")
    p_verify.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--girths", help="comma list for unicyclic-max, default 3,4,5")
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int, help="seed for randomized checks")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", help="write the report to this path")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="extremal Kirchhoff values over a space")
    p_search.add_argument("--deleted-edges", help="n,p: delete p edges from K_n")
    p_search.add_argument("--trees", type=int, help="n: all labeled trees")
    p_search.add_argument("--connected", help="n,m: connected graphs with m edges")
    p_search.add_argument("--min", action="store_true")
    p_search.add_argument("--max", action="store_true")
    p_search.add_argument("--top", type=int, default=1)
    p_search.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--out")
    p_search.set_defaults(func=_cmd_search)

    p_table = sub.add_parser("table", help="closed form vs numeric Kf regression table")
    p_table.add_argument("--families", required=True, help="comma list, e.g. path,cycle,q3")
    p_table.add_argument("--n", required=True, help="vertex count or range, e.g. 28 or 5..7")
    p_table.add_argument("--out")
    p_table.set_defaults(func=_cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, ConvergenceFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
