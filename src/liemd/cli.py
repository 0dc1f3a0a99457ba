"""Command-line surface.

Commands: check, orbit-dim, catalog build, verify-catalog, fingerprint,
iso, separate.  All numeric output is exact (integers or "p/q" strings),
JSON output is byte-deterministic for identical invocations (fixed seed,
canonical key order, no timestamps), and wall-clock timings appear only in
the human-readable text.

``verify-catalog`` runs on the default covector grid ``GridSpec()``.
``check`` takes its radius and sample count from ``--grid-radius`` and
``--samples``, whose defaults the parser reads from ``GridSpec()``; the
random samples always use its seed.

Exit codes for ``check``: 0 clean analysis (any verdict), 2 malformed
input, 3 Jacobi failure.  ``orbit-dim``, ``fingerprint``, ``iso`` and
``separate`` exit 2 on an algebra they cannot analyse (Jacobi failure, not
solvable, wrong dimension, or outside the iso test's codim-1 case).
``verify-catalog`` exits 0 iff every expectation holds, where the known
discrepancy family is expected to fail the MD test and is reported with
oracle evidence rather than treated as a crash.

``verify-catalog`` and ``separate`` analyse their algebras independently,
so they deal them out over the usable CPUs (``os.sched_getaffinity``):
the command process takes every k-th algebra from the first and k - 1
forked children take the others (``_fan_out``).  There is no flag; the
output, the error messages and the exit codes are those of a serial run,
which is what runs on one usable CPU or where ``os.fork`` does not exist.
The library never forks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog
from .exact import format_rational, format_vector, mat_rank, parse_vector
from .invariants import fingerprint, iso_test_codim1, labelled_fingerprint, separation_pairs
from .kirillov import (
    GridSpec,
    b_form_at,
    md_check,
    orbit_dim,
    rank_profile,
)
from .lie_core import LieAlgebra

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MALFORMED = 2
EXIT_JACOBI = 3

# the one catalog family whose MD expectation the checker reproducibly
# refutes, with its canonical counterexample covectors
KNOWN_DISCREPANCIES = {
    "5.2.2": [((0, 0, 0, 1, 0), 2), ((0, 0, 0, 0, 1), 4)],
}


def _emit_json(doc, out=None):
    out = sys.stdout if out is None else out
    out.write(json.dumps(doc, indent=2, sort_keys=True))
    out.write("\n")


def _load_algebra(path: str) -> LieAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise SystemExit2(f"{path}: invalid JSON: nested too deeply")
    except ValueError as exc:
        # an integer literal longer than sys.get_int_max_str_digits()
        raise SystemExit2(f"{path}: invalid JSON: {exc}")
    try:
        return LieAlgebra.from_dict(payload)
    except ValueError as exc:
        raise SystemExit2(f"{path}: {exc}")


class SystemExit2(Exception):
    """Malformed-input failure, mapped to exit code 2."""


def _write_output(text: str, path: str | None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write {path}: {exc}")
    else:
        sys.stdout.write(text)


def _run_share(fn, items) -> list:
    """(True, fn(x)) for each item in turn, ending at the first
    (False, exception)."""
    out = []
    for x in items:
        try:
            out.append((True, fn(x)))
        except Exception as exc:
            out.append((False, exc))
            break
    return out


def _fan_out(fn, items) -> list:
    """``[fn(x) for x in items]``, computed over the usable CPUs.

    The items are dealt in turn to k = min(usable CPUs, len(items))
    shares.  The caller computes the first share itself; each other share
    runs in a forked child, which sends back its pickled (ok, value) pairs
    through a pipe and ends in ``os._exit``, so it never returns into the
    caller, flushes the caller's buffered output or runs exit handlers.
    Every child is reaped before this returns or raises.  The first failure
    in input order is raised, as the serial loop would raise it; a child
    that dies before sending its whole share raises ``RuntimeError``.  With
    k = 1 nothing is forked.  The CLI starts no threads, so a fork copies
    a consistent process and ``fn`` need not be picklable.
    """
    import pickle

    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cpus, len(items)) if hasattr(os, "fork") else 1
    shares = [None] * k
    children = {}  # share -> (pid, read end of its pipe), until reaped
    try:
        for share in range(1, k):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        pickle.dump(_run_share(fn, items[share::k]), out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[share] = (pid, open(read, "rb"))
        shares[0] = _run_share(fn, items[0::k])
        for share in range(1, k):
            pid, pipe = children[share]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[share]
            if status != 0:  # a child exits 0 only after writing its whole share
                raise RuntimeError(f"worker process {pid} ended without its results "
                                   f"(wait status {status})")
            shares[share] = pickle.loads(payload)
    finally:
        if children:  # only when unwinding: stop the children left, reap them
            import signal
            for pid, pipe in children.values():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = []
    for i in range(len(items)):
        ok, value = shares[i % k][i // k]
        if not ok:
            raise value
        results.append(value)
    return results


# ---------------------------------------------------------------------------
# per-instance analysis shared by check and verify-catalog
# ---------------------------------------------------------------------------

def _analyze(g: LieAlgebra, grid: GridSpec) -> dict:
    record: dict = {"dim": g.dim}
    failure = g.jacobi_check()
    if failure is not None:
        i, j, k, defect = failure
        record["jacobi"] = {
            "status": "fail",
            "triple": [i + 1, j + 1, k + 1],
            "defect": format_vector(defect),
        }
        return record
    record["jacobi"] = {"status": "pass"}
    record["derived_dims"] = list(g.derived_dims())
    record["lower_central_dims"] = list(g.lower_central_dims())
    solvable = g.is_solvable()
    record["solvable"] = solvable
    if not solvable or g.dim != 5:
        record["md"] = None
        return record
    verdict = md_check(g, grid)
    profile = rank_profile(g, grid)
    record["md"] = verdict.to_dict(histogram=profile.histogram)
    # every IsMD rule proves rank max_dim off ann(G^1), so no covector
    # seen by the derived ideal can have a smaller orbit
    record["maximality"] = "holds" if verdict.kind == "IsMD" else None
    return record


def _adjoints_commute(g: LieAlgebra) -> bool:
    """Whether all ad_x commute on G^1; exact, since ad is linear in x."""
    basis = [g.basis_vector(i) for i in range(g.dim)]
    return all(g.ad_commute_check(x, y)
               for i, x in enumerate(basis) for y in basis[i + 1:])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    g = _load_algebra(args.file)
    try:
        grid = GridSpec(radius=args.grid_radius, extra_random_samples=args.samples)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    record = _analyze(g, grid)
    record["file"] = args.file
    if args.json:
        _emit_json(record)
    else:
        if record["jacobi"]["status"] == "fail":
            triple = record["jacobi"]["triple"]
            print(f"{args.file}: Jacobi identity FAILS at triple {tuple(triple)}; "
                  f"defect {record['jacobi']['defect']}")
        else:
            print(f"{args.file}: dim {record['dim']}, Jacobi passes, "
                  f"derived dims {record['derived_dims']}")
            md = record.get("md")
            if md is None:
                print("  MD analysis skipped (requires a solvable 5-dimensional algebra)")
            else:
                line = f"  MD verdict: {md['verdict']}"
                if md["max_dim"] is not None:
                    line += f" (max orbit dimension {md['max_dim']})"
                if md["proof"]:
                    line += f" via {md['proof']}"
                print(line)
                for w in md["witnesses"]:
                    print(f"    witness F={w['F']} rank {w['rank']}")
                print(f"  rank histogram: {md['histogram']}")
                if record.get("maximality") == "holds":
                    print("  orbits through covectors seen by the derived ideal: all maximal")
    if record["jacobi"]["status"] == "fail":
        return EXIT_JACOBI
    return EXIT_OK


def cmd_orbit_dim(args) -> int:
    g = _load_algebra(args.file)
    try:
        cov = parse_vector(args.f.split(","))
    except ValueError as exc:
        raise SystemExit2(f"bad covector: {exc}")
    if len(cov) != g.dim:
        raise SystemExit2(
            f"covector has {len(cov)} coordinates but the algebra has dimension {g.dim}")
    try:
        b = b_form_at(g, cov)
    except ValueError as exc:  # the Jacobi identity fails
        raise SystemExit2(f"{args.file}: {exc}")
    dim = mat_rank(b)
    if args.json:
        doc = {"file": args.file, "F": format_vector(cov), "orbit_dim": dim}
        if args.show_matrix:
            doc["B"] = [format_vector(row) for row in b.data]
        _emit_json(doc)
    else:
        print(dim)
        if args.show_matrix:
            print("B (entries b[i][j] = <F, [X_j, X_i]>):")
            for row in b.data:
                print("  [" + ", ".join(str(format_rational(x)) for x in row) + "]")
    return EXIT_OK


def cmd_catalog_build(args) -> int:
    try:
        params = catalog.parse_params(args.params or "")
    except ValueError as exc:
        raise SystemExit2(f"bad parameters: {exc}")
    try:
        violation = catalog.validate_params(args.id, params)
    except ValueError as exc:  # unknown family id
        raise SystemExit2(str(exc))
    if violation is not None:
        raise SystemExit2(f"invalid parameters for {args.id}: {violation}")
    g = catalog.build(args.id, params)
    text = json.dumps(g.to_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(text, args.output)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    g = _load_algebra(args.file)
    try:
        fp = fingerprint(g)
    except ValueError as exc:
        raise SystemExit2(f"{args.file}: {exc}")
    doc = fp.to_dict()
    doc["file"] = args.file
    _emit_json(doc)  # the fingerprint is inherently structured; always JSON
    return EXIT_OK


def cmd_iso(args) -> int:
    ga = _load_algebra(args.a)
    gb = _load_algebra(args.b)
    try:
        result = iso_test_codim1(ga, gb)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    doc = result.to_dict()
    doc["a"] = args.a
    doc["b"] = args.b
    if args.json:
        _emit_json(doc)
    else:
        if result.kind == "Iso":
            print("Iso: verified basis-change witness found")
            for row in result.witness.data:
                print("  [" + ", ".join(str(format_rational(x)) for x in row) + "]")
        else:
            print(f"NotIso: distinguished by {result.field}")
    return EXIT_OK


def _default_instances():
    return [(catalog.sample_label(fid, p), catalog.build(fid, p))
            for fid, p in catalog.default_samples()]


def cmd_separate(args) -> int:
    if args.targets == ["default"]:
        instances = _default_instances()
    else:
        instances = [(path, _load_algebra(path)) for path in args.targets]
    try:
        prints = _fan_out(labelled_fingerprint, instances)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    pairs = separation_pairs(instances, prints)
    doc = {"pairs": [p.to_dict() for p in pairs]}
    if args.json:
        _emit_json(doc)
    else:
        counts: dict[str, int] = {}
        for p in pairs:
            counts[p.outcome] = counts.get(p.outcome, 0) + 1
        print(f"{len(instances)} instances, {len(pairs)} pairs: "
              + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        for p in pairs:
            if p.outcome != "separated":
                print(f"  {p.outcome}: {p.a} | {p.b}"
                      + (f" ({p.field})" if p.field else ""))
    return EXIT_OK


def cmd_verify_catalog(args) -> int:
    grid = GridSpec()
    started = time.monotonic()
    instances = []
    failures = []
    discrepancies = []
    rejected_confirmed = True

    def analyze_sample(sample):
        fid, params = sample
        g = catalog.build(fid, params)
        record = _analyze(g, grid)
        record["family"] = fid
        record["params"] = params.label()
        record["ad_commute"] = "pass" if _adjoints_commute(g) else "fail"
        ranks = [mat_rank(b_form_at(g, cov)) for cov, _ in KNOWN_DISCREPANCIES.get(fid, ())]
        return record, ranks

    for record, ranks in _fan_out(analyze_sample, catalog.default_samples()):
        fid = record["family"]
        if record["ad_commute"] == "fail":
            failures.append(f"{fid}: commuting-adjoints check failed")
        is_rejected = fid.startswith("rejected.")
        verdict = record["md"]["verdict"] if record["md"] else None
        record["discrepancy"] = None
        if is_rejected:
            record["expected"] = "NotMD"
            if verdict != "NotMD":
                rejected_confirmed = False
                failures.append(f"{fid}: expected NotMD, checker returned {verdict}")
        else:
            record["expected"] = "IsMD"
            if fid in KNOWN_DISCREPANCIES:
                witnesses = []
                ok = verdict == "NotMD"
                for (cov, expected_rank), rank in zip(KNOWN_DISCREPANCIES[fid], ranks):
                    witnesses.append({"F": format_vector(cov), "rank": rank})
                    ok = ok and rank == expected_rank
                record["discrepancy"] = {
                    "claimed": "IsMD",
                    "found": verdict,
                    "witnesses": witnesses,
                }
                if ok:
                    discrepancies.append(fid)
                else:
                    failures.append(
                        f"{fid}: discrepancy evidence did not verify (verdict {verdict})")
            elif verdict != "IsMD":
                failures.append(f"{fid}: expected IsMD, checker returned {verdict}")
        instances.append(record)

    elapsed = time.monotonic() - started
    doc = {
        "config": {
            "grid_radius": grid.radius,
            "samples": grid.extra_random_samples,
            "seed": grid.seed,
        },
        "instances": instances,
        "summary": {
            "families": len(catalog.FAMILY_IDS),
            "instances": len(instances),
            "discrepancies": sorted(set(discrepancies)),
            "rejected_confirmed": rejected_confirmed,
            "failures": failures,
        },
    }
    if args.json:
        _emit_json(doc)
    else:
        print(f"verified {len(instances)} instances over "
              f"{len(catalog.FAMILY_IDS)} families in {elapsed:.1f}s "
              f"(radius {grid.radius}, {grid.extra_random_samples} extra samples, seed {grid.seed})")
        for record in instances:
            fid = record["family"]
            label = fid + (f"({record['params']})" if record["params"] else "")
            md = record["md"]
            verdict = md["verdict"] if md else "skipped"
            extra = ""
            if md and md["max_dim"] is not None:
                extra = f" max {md['max_dim']}"
            if record["discrepancy"]:
                ws = ", ".join(f"F={w['F']} rank {w['rank']}"
                               for w in record["discrepancy"]["witnesses"])
                extra += f"  ** DISCREPANCY: listed as MD, checker finds {verdict} ({ws})"
            print(f"  {label:28} {verdict}{extra}")
        if failures:
            print("FAILURES:")
            for f in failures:
                print(f"  {f}")
        else:
            print("all expectations hold"
                  + (f"; known discrepancies: {sorted(set(discrepancies))}" if discrepancies else ""))
    return EXIT_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemd",
        description="Exact analysis of 5-dimensional solvable Lie algebras: "
                    "coadjoint orbit dimensions, MD verdicts, catalog verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = GridSpec()
    p = sub.add_parser("check", help="validate and analyze an algebra file")
    p.add_argument("file")
    p.add_argument("--grid-radius", type=int, default=grid.radius, metavar="N",
                   help="integer grid radius (default %(default)s)")
    p.add_argument("--samples", type=int, default=grid.extra_random_samples, metavar="N",
                   help="extra random covector samples (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit-dim", help="orbit dimension at a covector")
    p.add_argument("file")
    p.add_argument("--f", required=True, metavar="a,b,c,...",
                   help="covector coordinates, exact rationals")
    p.add_argument("--show-matrix", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbit_dim)

    p = sub.add_parser("catalog", help="catalog operations")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    pb = catalog_sub.add_parser("build", help="build a catalog instance")
    pb.add_argument("id", help="family id, e.g. 5.4.6 or rejected.5.2.3")
    pb.add_argument("params", nargs="?", default="",
                    help='e.g. "l1=2,l2=3,mu=1,angle=3/5:4/5"')
    pb.add_argument("-o", "--output", metavar="FILE")
    pb.set_defaults(func=cmd_catalog_build)

    p = sub.add_parser("verify-catalog", help="run the full catalog verification")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_catalog)

    p = sub.add_parser("fingerprint", help="basis-invariant fingerprint of an algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("iso", help="exact isomorphism test (codim-1 commutative derived ideal)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("separate", help="pairwise separation report")
    p.add_argument("targets", nargs="+",
                   help='"default" for the bundled catalog samples, or algebra files')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_separate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
