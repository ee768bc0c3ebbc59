"""Command-line front end.

Subcommands:

* ``enumerate``  -- multigraph classes for a profile
* ``classify``   -- the full search pipeline, with checkpoint/resume and an
                    optional worker pool
* ``verify``     -- run the full vetting battery on a weight-system JSON file
* ``hattori``    -- level structures and r-values for a weight system, or the
                    dimension-8 Diophantine solver (--c1/--lmax)
* ``fixture``    -- emit a reference weight system as JSON
* ``scan-c1eq1`` -- volume scan for the dimension-8 constant-1 branch

Exit codes: 0 success, 2 schema error, 3 infeasible profile / failed verify.
Commands and the argument parser raise their refusals; ``main`` prints each
as one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .core import (
    FixedPointProfile,
    ProfileError,
    WeightSystem,
    minimal_profile,
    weight_system_checks,
)
from .fixtures import FIXTURES
from .graphs import enumerate_multigraphs
from .hattori import available_levels, derive_levels, dim8_solver, r_values_at_one
from .laurent import NotLaurent
from .localization import chern_battery, chern_constant_parts, in_index_order, point_products
from .search import (
    CheckpointMismatch,
    ClassificationResult,
    SearchOptions,
    classify,
    vet_instance,
    write_atomic,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3


class UsageError(Exception):
    """Arguments that do not describe a run; reported as a schema error."""


class _Parser(argparse.ArgumentParser):
    """An argument parser (its subcommand parsers too) that raises its
    refusals as UsageError, for ``main`` to print as one line."""

    def error(self, message):
        raise UsageError(message)


def _at_least_one(text: str) -> int:
    """argparse type of an integer flag that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _profile_from_args(args) -> FixedPointProfile:
    if args.n is None:
        raise UsageError("--lambdas requires --n" if args.lambdas is not None
                         else "need --n (with --minimal) or --lambdas")
    if args.lambdas is None:
        return minimal_profile(args.n)
    try:
        return FixedPointProfile(args.n, tuple(int(x) for x in args.lambdas.split(",")))
    except ValueError as exc:
        raise UsageError("--lambdas must be comma-separated integers: %s" % exc) from exc


def _check_out(out: Optional[str]) -> None:
    """Refuse an --out path that is a directory, or that is in a directory
    that does not exist, before any work is done."""
    if not out:
        return
    if os.path.isdir(out):
        raise UsageError("--out %s is a directory, not a file" % out)
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise UsageError("--out %s: its directory does not exist" % out)


def _write_out(payload: str, out: Optional[str]) -> None:
    if out:
        write_atomic(out, payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _human_table(result: ClassificationResult) -> str:
    lines = ["profile n=%d lambdas=%s" % (result.profile.n, list(result.profile.lambdas)),
             "graph classes examined: %d" % result.graphs_examined,
             "surviving families: %d" % len(result.families)]
    for t, fam in enumerate(result.families):
        lines.append("")
        lines.append("family %d: edges %s" % (t + 1, list(fam.graph.edges)))
        lines.append("  magnitudes %s  (kernel dimension %d, %d vetted instances)"
                     % (list(fam.magnitudes), fam.kernel_dim(), len(fam.instances)))
        for i, exprs in enumerate(fam.parametric_weights()):
            lines.append("  P%d: {%s}" % (i, ", ".join(exprs)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    graphs = enumerate_multigraphs(_profile_from_args(args), mode=args.filter, dedup=args.dedup)
    _write_out(json.dumps([g.to_json() for g in graphs], indent=1), args.out)
    print("%d graph classes" % len(graphs), file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.resume and args.out and os.path.realpath(args.resume) == os.path.realpath(args.out):
        raise UsageError("--resume and --out are one file, %s: the result would replace "
                         "the checkpoint" % args.out)
    opts = SearchOptions(bound_d=args.bound_D, divisor_c=args.C,
                         dim8_strict=args.dim8_strict, witness_bound=args.witness_bound,
                         max_labelings=args.max_labelings)
    result = classify(_profile_from_args(args), opts, jobs=args.jobs, checkpoint=args.resume)
    _write_out(json.dumps(result.to_json(), indent=1, sort_keys=True), args.out)
    sys.stderr.write(_human_table(result))
    return EXIT_OK


def _load_ws(path: str) -> WeightSystem:
    """The weight system in JSON file ``path``; UsageError when unreadable."""
    try:
        with open(path) as fh:
            return WeightSystem.from_json(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(exc) from exc


def _exact(values) -> str:
    """A list of ints or fractions as exact values: [1, 2, 1/20]."""
    return "[%s]" % ", ".join(map(str, values))


def cmd_verify(args) -> int:
    ws = _load_ws(args.file)
    failures = weight_system_checks(ws)
    lines = ["weight system: %s" % (ws.points,)]
    lines.append("structural checks: %s" % ("pass" if not failures else "; ".join(failures)))
    # localization divides by every weight and counts points by their index
    if any(len(p) != ws.n or 0 in p for p in ws.points):
        _write_out("\n".join(lines) + "\n", args.out)
        return EXIT_INFEASIBLE
    report = chern_battery(ws)
    zero = ", ".join("%s = %s" % (_exact(md), value) for md, value in report.zero_failures[:3])
    lines.append("zero integrals: %s" % ("FAIL " + zero if zero else "pass"))
    lines.append("c_n = %s (fixed points: %d)" % (report.c_n, ws.num_points))
    lines.append("c1*c_{n-1} = %s (expected %s)" % (report.c1_cn1, report.expected_c1_cn1))
    if in_index_order(ws):
        parts = list(chern_constant_parts(ws.weight_sums(), *point_products(ws.points)))
        lines.append("chern constants C_i: %s"
                     % _exact([1] + [Fraction(num, den) for num, den, _, _ in parts]))
        lines.append("reversed-action constants: %s"
                     % _exact([1] + [Fraction(num, den) for _, _, num, den in parts]))
    verdict = vet_instance(ws, SearchOptions())
    lines.append("full battery: %s" % ("all-pass" if verdict is None else "FAIL at %s" % verdict))
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if verdict is None else EXIT_INFEASIBLE


def cmd_hattori(args) -> int:
    if args.c1 is not None:
        if args.k0 is not None:
            raise UsageError("--k0 applies to a weight-system file, not to --c1")
        sols = dim8_solver(args.c1, lmax=100 if args.lmax is None else args.lmax)
        _write_out(json.dumps([[l, str(m)] for l, m in sols]), args.out)
        return EXIT_OK
    if args.lmax is not None:
        raise UsageError("--lmax applies to --c1, not to a weight-system file")
    ws = _load_ws(args.file)
    if any(0 in p for p in ws.points):
        raise UsageError("%s has a zero weight: the index divides by every weight" % args.file)
    levels = [derive_levels(ws, args.k0)] if args.k0 is not None else available_levels(ws)
    lines = []
    for lv in levels:
        if lv is None:
            lines.append("k0=%s: no level structure" % args.k0)
            continue
        try:
            rvals = r_values_at_one(ws, lv)
        except NotLaurent:
            lines.append("k0=%d: index is not a Laurent polynomial" % lv.k0)
            continue
        lines.append("k0=%d d=%d a=%s r(1)=%s"
                     % (lv.k0, lv.d, list(lv.a), rvals))
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fixture(args) -> int:
    takes_xi = args.name in ("cp", "grassmannian")
    if takes_xi and not args.xi:
        raise UsageError("%s needs --xi" % args.name)
    if not takes_xi and args.xi is not None:
        raise UsageError("--xi applies to cp and grassmannian, not to %s" % args.name)
    if args.name != "s2xs2" and (args.a, args.b) != (None, None):
        raise UsageError("--a and --b apply to s2xs2, not to %s" % args.name)
    maker = FIXTURES[args.name]
    try:
        if takes_xi:
            ws = maker(tuple(int(x) for x in args.xi.split(",")))
        elif args.name == "s2xs2":
            ws = maker(1 if args.a is None else args.a, 2 if args.b is None else args.b)
        else:
            ws = maker()
    except ValueError as exc:  # IneffectiveParameters is one
        raise UsageError("bad parameters: %s" % exc) from exc
    _write_out(json.dumps(ws.to_json(), indent=1), args.out)
    return EXIT_OK


def cmd_scan_c1eq1(args) -> int:
    sols = dim8_solver(1, lmax=args.lmax)
    ls = sorted({l for l, _ in sols})
    _write_out(json.dumps({"l": ls, "solutions": [[l, str(m)] for l, m in sols]}), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="circleweights",
                 description="classification of circle-action isotropy weights")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def profile_flags(p):
        p.add_argument("--n", type=int)
        g = p.add_mutually_exclusive_group()
        g.add_argument("--minimal", action="store_true",
                       help="use the minimal profile for --n (default when no --lambdas)")
        g.add_argument("--lambdas", help="comma-separated Morse indices")
        p.add_argument("--out")

    p = sub.add_parser("enumerate", help="multigraph classes of a profile")
    profile_flags(p)
    p.add_argument("--filter", choices=["all", "nonneg", "positive"], default="nonneg")
    p.add_argument("--dedup", choices=["none", "reversal"], default="reversal")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="run the search pipeline")
    profile_flags(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--C", type=_at_least_one, help="restrict to one divisor branch")
    g.add_argument("--bound-D", type=_at_least_one, help="bounded mode |m| <= 2D")
    p.add_argument("--dim8-strict", action="store_true")
    p.add_argument("--jobs", type=_at_least_one, default=1)
    p.add_argument("--resume", help="checkpoint file")
    p.add_argument("--witness-bound", type=_at_least_one, default=SearchOptions.witness_bound)
    p.add_argument("--max-labelings", type=_at_least_one,
                   help="search-tree node budget; truncates huge branches")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="vet a weight-system JSON file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hattori", help="level structures and r-values / dim-8 solver")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("file", nargs="?")
    g.add_argument("--c1", type=_at_least_one, help="run the dimension-8 solver for this constant")
    p.add_argument("--k0", type=_at_least_one)
    p.add_argument("--lmax", type=_at_least_one, help="solver bound for --c1 (default 100)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hattori)

    p = sub.add_parser("fixture", help="emit a reference weight system")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--xi", help="comma-separated weights for cp/grassmannian")
    p.add_argument("--a", type=int, help="s2xs2 only (default 1)")
    p.add_argument("--b", type=int, help="s2xs2 only (default 2)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("scan-c1eq1", help="dimension-8 volume scan for constant 1")
    p.add_argument("--lmax", type=_at_least_one, default=60)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan_c1eq1)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        return args.func(args)
    except (UsageError, CheckpointMismatch) as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    except ProfileError as exc:
        print("infeasible profile: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
