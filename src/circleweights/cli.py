"""Command-line front end.

Subcommands:

* ``enumerate``  -- multigraph classes for a profile
* ``classify``   -- the full search pipeline, with checkpoint/resume, an
                    optional worker pool and a result cache
* ``verify``     -- run the full vetting battery on a weight-system JSON file
* ``hattori``    -- level structures and r-values for a weight system, or the
                    dimension-8 Diophantine solver (--c1/--lmax)
* ``fixture``    -- emit a reference weight system as JSON
* ``scan-c1eq1`` -- volume scan for the dimension-8 constant-1 branch

Exit codes: 0 success, 2 schema error, 3 infeasible profile / failed verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .core import (
    FixedPointProfile,
    ProfileError,
    WeightSystem,
    WeightSystemError,
    minimal_profile,
    validate_profile,
    weight_system_checks,
)
from .fixtures import FIXTURES, IneffectiveParameters
from .graphs import enumerate_multigraphs
from .hattori import available_levels, derive_levels, dim8_solver, r_values_at_one
from .laurent import NotLaurent
from .localization import chern_battery
from .search import (
    CheckpointMismatch,
    ClassificationResult,
    NonIntegralSum,
    SearchOptions,
    classify,
    magnitude_sum,
    run_fingerprint,
    vet_instance,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3


def _profile_from_args(args) -> FixedPointProfile:
    if args.lambdas:
        lams = tuple(int(x) for x in args.lambdas.split(","))
        if args.n is None:
            raise SystemExit("--lambdas requires --n")
        return FixedPointProfile(args.n, lams)
    if args.n is None:
        raise SystemExit("need --n (with --minimal) or --lambdas")
    return minimal_profile(args.n)


def _write_out(payload: str, out: Optional[str]) -> None:
    if out:
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(payload)
        os.replace(tmp, out)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _result_json(result: ClassificationResult) -> dict:
    return {
        "profile": {"n": result.profile.n, "lambdas": list(result.profile.lambdas)},
        "options": result.options.to_json(),
        "graphs_examined": result.graphs_examined,
        "audit": result.audit,
        "families": [f.to_json() for f in result.families],
    }


def _human_table(result: ClassificationResult) -> str:
    lines = []
    lines.append("profile n=%d lambdas=%s" % (result.profile.n, list(result.profile.lambdas)))
    lines.append("graph classes examined: %d" % result.graphs_examined)
    lines.append("surviving families: %d" % len(result.families))
    for t, fam in enumerate(result.families):
        lines.append("")
        lines.append("family %d: edges %s" % (t + 1, list(fam.graph.edges)))
        lines.append("  magnitudes %s  (kernel dimension %d, %d vetted instances)"
                     % (list(fam.magnitudes), fam.kernel_dim(), len(fam.instances)))
        for i, exprs in enumerate(fam.family.parametric_weights()):
            lines.append("  P%d: {%s}" % (i, ", ".join(exprs)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    try:
        profile = _profile_from_args(args)
        validate_profile(profile)
    except ProfileError as exc:
        print("infeasible profile: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    graphs = enumerate_multigraphs(profile, mode=args.filter, dedup=args.dedup)
    payload = json.dumps([g.to_json() for g in graphs], indent=1)
    _write_out(payload, args.out)
    print("%d graph classes" % len(graphs), file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    try:
        profile = _profile_from_args(args)
        validate_profile(profile)
        opts = SearchOptions(
            mode="bounded" if args.bound_D else "nonnegative",
            bound_d=args.bound_D or 1,
            divisor_c=args.C,
            dim8_strict=args.dim8_strict,
            witness_bound=args.witness_bound,
            max_labelings=args.max_labelings,
        )
        total = magnitude_sum(profile)
    except (ProfileError, NonIntegralSum, ValueError) as exc:
        print("infeasible profile: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    if opts.mode == "nonnegative" and not profile.is_minimal and total < 0:
        print("nonnegative mode refused: non-minimal profile with negative "
              "magnitude-sum target %d; use --bound-D" % total, file=sys.stderr)
        return EXIT_INFEASIBLE
    cache_file = None
    if args.cache:
        os.makedirs(args.cache, exist_ok=True)
        cache_file = os.path.join(args.cache, "classify-%s.json" % run_fingerprint(profile, opts))
        if os.path.exists(cache_file):
            with open(cache_file) as fh:
                payload = fh.read()
            _write_out(payload, args.out)
            print("(cached)", file=sys.stderr)
            return EXIT_OK
    try:
        result = classify(profile, opts, jobs=args.jobs, checkpoint=args.resume)
    except CheckpointMismatch as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    payload = json.dumps(_result_json(result), indent=1, sort_keys=True)
    if cache_file:
        _write_out(payload, cache_file)
    _write_out(payload, args.out)
    sys.stderr.write(_human_table(result))
    return EXIT_OK


def _load_ws(path: str) -> WeightSystem:
    with open(path) as fh:
        return WeightSystem.from_json(json.load(fh))


def cmd_verify(args) -> int:
    try:
        ws = _load_ws(args.file)
    except (OSError, ValueError, KeyError, WeightSystemError) as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    failures = weight_system_checks(ws)
    report = chern_battery(ws)
    lines = ["weight system: %s" % (ws.points,)]
    lines.append("structural checks: %s" % ("pass" if not failures else "; ".join(failures)))
    lines.append("zero integrals: %s" % ("pass" if not report.zero_failures else
                                         "FAIL %s" % report.zero_failures[:3]))
    lines.append("c_n = %s (fixed points: %d)" % (report.c_n, ws.num_points))
    lines.append("c1*c_{n-1} = %s (expected %s)" % (report.c1_cn1, report.expected_c1_cn1))
    if report.chern_constants is not None:
        lines.append("chern constants C_i: %s" % report.chern_constants)
        lines.append("reversed-action constants: %s" % report.reversed_constants)
    verdict = vet_instance(ws, SearchOptions())
    lines.append("full battery: %s" % ("all-pass" if verdict is None else "FAIL at %s" % verdict))
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if verdict is None and not failures and report.ok else EXIT_INFEASIBLE


def cmd_hattori(args) -> int:
    if args.c1 is not None:
        sols = dim8_solver(args.c1, lmax=args.lmax)
        _write_out(json.dumps([[l, str(m)] for l, m in sols]), args.out)
        return EXIT_OK
    if not args.file:
        print("need a weight-system file or --c1", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        ws = _load_ws(args.file)
    except (OSError, ValueError, KeyError, WeightSystemError) as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    levels = [derive_levels(ws, args.k0)] if args.k0 else available_levels(ws)
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
                     % (lv.k0, lv.d, list(lv.a), [str(v) for v in rvals]))
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fixture(args) -> int:
    maker = FIXTURES[args.name]
    try:
        if args.name == "cp" or args.name == "grassmannian":
            if not args.xi:
                print("need --xi", file=sys.stderr)
                return EXIT_SCHEMA
            ws = maker(tuple(int(x) for x in args.xi.split(",")))
        elif args.name == "s2xs2":
            ws = maker(args.a, args.b)
        else:
            ws = maker()
    except (IneffectiveParameters, ValueError) as exc:
        print("bad parameters: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    _write_out(json.dumps(ws.to_json(), indent=1), args.out)
    return EXIT_OK


def cmd_scan_c1eq1(args) -> int:
    sols = dim8_solver(1, lmax=args.lmax)
    ls = sorted({l for l, _ in sols})
    _write_out(json.dumps({"l": ls, "solutions": [[l, str(m)] for l, m in sols]}), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="circleweights",
                                 description="classification of circle-action isotropy weights")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def profile_flags(p):
        p.add_argument("--n", type=int)
        p.add_argument("--minimal", action="store_true",
                       help="use the minimal profile for --n (default when no --lambdas)")
        p.add_argument("--lambdas", help="comma-separated Morse indices")
        p.add_argument("--out")

    p = sub.add_parser("enumerate", help="multigraph classes of a profile")
    profile_flags(p)
    p.add_argument("--filter", choices=["all", "nonneg", "positive"], default="nonneg")
    p.add_argument("--dedup", choices=["none", "reversal"], default="reversal")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="run the search pipeline")
    profile_flags(p)
    p.add_argument("--C", type=int, help="restrict to one divisor branch")
    p.add_argument("--bound-D", type=int, help="bounded mode |m| <= 2D")
    p.add_argument("--dim8-strict", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", help="checkpoint file")
    p.add_argument("--cache", help="cache directory")
    p.add_argument("--witness-bound", type=int, default=12)
    p.add_argument("--max-labelings", type=int,
                   help="search-tree node budget; truncates huge branches")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="vet a weight-system JSON file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hattori", help="level structures and r-values / dim-8 solver")
    p.add_argument("file", nargs="?")
    p.add_argument("--k0", type=int)
    p.add_argument("--c1", type=int, help="run the dimension-8 solver for this constant")
    p.add_argument("--lmax", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hattori)

    p = sub.add_parser("fixture", help="emit a reference weight system")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--xi", help="comma-separated weights for cp/grassmannian")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("scan-c1eq1", help="dimension-8 volume scan for constant 1")
    p.add_argument("--lmax", type=int, default=60)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan_c1eq1)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
