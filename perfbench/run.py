"""liemd benchmark: seeded workloads through the public CLI and library.

    python3 perfbench/run.py --workload catalog|grid|presentations \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from ``--seed`` before
anything is timed.  Each workload runs closed-loop passes (one client, one
child process at a time) for about ``--seconds``; every output is checked
against facts about the algebras.  The last stdout line is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  The lines before it print every
figure by name and unit.  See perfbench/README.md for the workloads, the
metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("catalog", "grid", "presentations")
CATALOG_PASS = ["verify-catalog", "separate"] * 3
GRID_RADIUS = 4
GRID_FINAL_RADIUS = 6
# the grid every CLI command uses by default, and the library workload's
LIB_GRID = {"radius": 2, "samples": 200, "seed": 1}
PRESENTATIONS_PER_SAMPLE = 3
SETUP_PROBES = 9

# per-layer metric -> (workload whose traced ops measure it, span name)
LAYER_SPANS = {
    "kirillov.grid_enum_s": ("grid", "kirillov.grid_enum"),
    "kirillov.rank_profile_s": ("grid", "kirillov.rank_profile"),
    "kirillov.rank_profile_wide_s": ("grid", "kirillov.rank_profile_wide"),
    "kirillov.maximality_s": ("grid", "kirillov.maximality"),
    "lie_core.parse_s": ("presentations", "lie_core.parse"),
    "lie_core.jacobi_s": ("presentations", "lie_core.jacobi"),
    "lie_core.series_s": ("presentations", "lie_core.series"),
    "lie_core.center_s": ("presentations", "lie_core.center"),
    "kirillov.form_s": ("presentations", "kirillov.form"),
    "exact.frobenius_s": ("presentations", "exact.frobenius"),
    "invariants.fingerprint_s": ("presentations", "invariants.fingerprint"),
    "invariants.iso_s": ("presentations", "invariants.iso"),
    "catalog.build_s": ("catalog", "catalog.build"),
    "lie_core.ad_commute_s": ("catalog", "lie_core.ad_commute"),
    "kirillov.md_check_s": ("catalog", "kirillov.md_check"),
    "invariants.separation_s": ("catalog", "invariants.separation"),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def spawn(argv: list, out_path: str, env: dict):
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def child_env() -> dict:
    """The caller's environment with ``src`` importable and bytecode caching on.

    Caching is forced on so that ``setup_s`` and every CLI start-up measure
    what an installed package costs, whatever the caller's setting.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli(*args) -> list:
    return [sys.executable, "-m", "liemd.cli", *args]


def worker(*args) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), *args]


def measure_setup(work: str, env: dict) -> float:
    """Median wall time of a fresh ``import liemd.cli``."""
    walls = []
    for _ in range(SETUP_PROBES):
        wall, code, _ = spawn([sys.executable, "-c", "import liemd.cli"],
                              os.path.join(work, "setup.out"), env)
        if code != 0:
            raise RuntimeError("import liemd.cli failed")
        walls.append(wall)
    return statistics.median(walls)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def generate(work: str, seed: int) -> dict:
    """Every input of every workload, from the seed; nothing here is timed."""
    from liemd import catalog

    samples = [(catalog.sample_label(fid, p), inputs.table_of(catalog.build(fid, p).to_dict()))
               for fid, p in catalog.default_samples()]
    tables = dict(samples)
    rejected = tables["rejected.5.2.3"]
    grid_tables = {
        "5.3.8": next(t for label, t in samples if label.startswith("5.3.8")),
        "rejected.5.2.3": rejected,
        "aff-C-plus-R": inputs.AFF_C_PLUS_R,
        "rejected.5.2.3-wide": inputs.wide_presentation(
            rejected, random.Random(seed)),
    }
    wide = grid_tables["rejected.5.2.3-wide"]
    if inputs.peak_coefficient(wide) <= inputs.INT64_MAX:
        raise AssertionError("the large-coefficient input fits int64")
    grid_files = {name: write_json(os.path.join(work, f"{name}.json"), inputs.doc_of(t))
                  for name, t in grid_tables.items()}
    grid_ops = [(name, GRID_RADIUS) for name in grid_tables]
    grid_ops.append(("5.3.8", GRID_FINAL_RADIUS))

    moved = inputs.presentations(samples, seed, PRESENTATIONS_PER_SAMPLE)
    lib_spec = {
        "grid": LIB_GRID,
        "samples": [{"label": label, "doc": inputs.doc_of(t),
                     "codim1": inputs.is_codim1_commutative(t)} for label, t in samples],
        "ops": [{"sample": index, "text": json.dumps(doc)} for index, doc in moved],
    }
    return {"samples": samples, "tables": tables, "rejected": rejected, "grid_tables": grid_tables,
            "grid_files": grid_files, "grid_ops": grid_ops, "lib_spec": lib_spec,
            "lib_moved": [inputs.table_of(doc) for _, doc in moved]}


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

def cli_pass(ops: list, work: str, env: dict):
    """Run CLI ops back to back: (pass wall, [(op, latency, code, rss, out path)])."""
    done = []
    started = time.perf_counter()
    for i, (op, argv) in enumerate(ops):
        out = os.path.join(work, f"op{i}.out")
        wall, code, rss = spawn(argv, out, env)
        done.append((op, wall, code, rss, out))
    return time.perf_counter() - started, done


def catalog_ops() -> list:
    return [(op, cli(op, *(["default"] if op == "separate" else []), "--json"))
            for op in CATALOG_PASS]


def grid_ops(data: dict) -> list:
    return [((name, radius), cli("check", data["grid_files"][name], "--grid-radius",
                                 str(radius), "--json"))
            for name, radius in data["grid_ops"]]


def check_cli_op(op, code: int, out: str, data: dict) -> list:
    if code != 0:
        return [f"{op}: exit code {code}"]
    try:
        doc = read_json(out)
    except ValueError as exc:
        return [f"{op}: output is not JSON ({exc})"]
    if op == "verify-catalog":
        return checks.check_verify_catalog(doc, data["tables"])
    if op == "separate":
        return checks.check_separate(doc)
    name, _ = op
    return checks.check_record(name, doc, data["grid_tables"][name])


class Timed:
    """What the timed passes of one run measured, and the ops that failed.

    ``failed`` counts ops that exited badly or failed a check.  ``defective``
    also counts the ops whose only fault is the basis-dependent fingerprint
    histogram of ROADMAP item 1 (``checks.histogram_differs``).
    """

    def __init__(self):
        self.walls: list = []
        self.peak_mb = 0.0
        self.latencies: dict = defaultdict(list)  # op label -> seconds, all passes
        self.attempted = 0
        self.failed = 0
        self.defective = 0
        self.histogram_moved = 0
        self.problems: list = []

    def add(self, problems: list, histogram_moved: bool = False):
        self.attempted += 1
        self.histogram_moved += histogram_moved
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if problems or histogram_moved:
            self.defective += 1

    def all_latencies(self) -> list:
        return [x for values in self.latencies.values() for x in values]


def run_cli_workload(workload: str, data: dict, work: str, env: dict, seconds: float):
    ops = catalog_ops() if workload == "catalog" else grid_ops(data)
    timed, peaks = Timed(), []
    started = time.perf_counter()
    while True:
        wall, done = cli_pass(ops, work, env)
        timed.walls.append(wall)
        peaks.append(max(rss for _, _, _, rss, _ in done))
        for op, latency, code, _, out in done:
            timed.latencies[op if isinstance(op, str) else "check %s r%d" % op].append(latency)
            timed.add(check_cli_op(op, code, out, data))
        if not keep_going(time.perf_counter() - started, seconds, timed.walls):
            break
    timed.peak_mb = statistics.median(peaks)
    extra = {}
    if workload == "grid":
        extra["check_r6_s"] = statistics.median(
            timed.latencies["check 5.3.8 r%d" % GRID_FINAL_RADIUS])
    return timed, extra


def run_presentations(data: dict, work: str, env: dict, seconds: float):
    spec = dict(data["lib_spec"], budget_s=seconds)
    out = os.path.join(work, "presentations.json")
    _, code, timed_peak = spawn(worker("presentations", write_json(
        os.path.join(work, "presentations.spec"), spec), out), out + ".log", env)
    if code != 0:
        raise RuntimeError(f"presentations worker exited {code}; see {out}.log.err")
    doc = read_json(out)
    timed = Timed()
    timed.peak_mb = timed_peak
    samples = data["lib_spec"]["samples"]
    tables = [t for _, t in data["samples"]]
    for p in doc["passes"]:
        timed.walls.append(p["wall"])
        rows = zip(data["lib_spec"]["ops"], data["lib_moved"], p["results"], p["latencies"])
        for op, moved, result, latency in rows:
            index = op["sample"]
            label = samples[index]["label"]
            timed.latencies[label].append(latency)
            canonical = doc["reference"][index]
            problems = checks.check_presentation(result, canonical, tables[index], moved)
            timed.add([f"{label}: {x}" for x in problems],
                      checks.histogram_differs(result, canonical))
    p90 = statistics.quantiles(timed.all_latencies(), n=10)[-1]
    return timed, {"op_p90_s": p90}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_ops(workload: str, data: dict) -> list:
    """Specs of one traced pass: one child per CLI op, one for the library."""
    if workload == "catalog":
        return [{"kind": op, "grid": LIB_GRID} for op in CATALOG_PASS]
    if workload == "grid":
        specs, seen = [], set()
        for name, radius in data["grid_ops"]:
            specs.append({
                "kind": "check", "file": data["grid_files"][name],
                "grid": dict(LIB_GRID, radius=radius),
                "rank_span": "kirillov.rank_profile_wide" if name.endswith("-wide")
                else "kirillov.rank_profile",
                "enumerate": radius not in seen})
            seen.add(radius)
        return specs
    return [dict(data["lib_spec"], kind="presentations")]


def self_times(spans: list) -> dict:
    """Per span name: total duration minus the time its child spans cover."""
    covered = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - covered[index]
    return out


def traced_pass(workload: str, data: dict, work: str, env: dict):
    """(traced wall, self time per span name, summed facts) of one pass."""
    wall, selfs, facts = 0.0, defaultdict(float), defaultdict(int)
    for i, spec in enumerate(traced_ops(workload, data)):
        out = os.path.join(work, f"trace-{workload}-{i}.json")
        spec_path = write_json(out + ".spec", spec)
        child_wall, code, _ = spawn(worker("trace", spec_path, out), out + ".log", env)
        if code != 0:
            raise RuntimeError(f"traced {spec['kind']} exited {code}; see {out}.log.err")
        doc = read_json(out)
        wall += child_wall if doc["wall"] is None else doc["wall"]
        for name, value in self_times(doc["spans"]).items():
            selfs[name] += value
        for name, value in doc["facts"].items():
            facts[name] += value
    return wall, selfs, facts


def layer_metrics(workload: str, wall_s: float, data: dict, work: str, env: dict) -> dict:
    runs = {w: traced_pass(w, data, work, env) for w in WORKLOADS}
    for w, (wall, selfs, _) in runs.items():
        print(f"traced {w}: wall {wall:.3f} s; self time per span:")
        for name, value in sorted(selfs.items(), key=lambda item: -item[1]):
            print(f"  {name:38} {value:12.6f} s")
    metrics = {}
    for metric, (source, span) in LAYER_SPANS.items():
        metrics[metric] = (runs[source][1].get(span, 0.0), "s")
    grid_facts, lib_facts, cat_facts = (runs[w][2] for w in ("grid", "presentations", "catalog"))
    metrics["kirillov.grid_points"] = (grid_facts["grid_points"], "count")
    metrics["invariants.iso_tests"] = (lib_facts["iso_tests"], "count")
    metrics["kirillov.structural_share"] = (cat_facts["proved"] / cat_facts["verdicts"], "ratio")
    metrics["invariants.fingerprint_decided_share"] = (
        cat_facts["fingerprint_decided"] / cat_facts["pairs"], "ratio")
    metrics["trace.overhead_s"] = (runs[workload][0] - wall_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def keep_going(elapsed: float, budget: float, walls: list) -> bool:
    """Closed-loop rule: start another pass only if it should end in budget."""
    return elapsed + statistics.median(walls) <= budget


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so that the running child is killed and
    # the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "liemd", "cli.py")):
        print(f"error: no liemd sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str) -> int:
    env = child_env()
    data = generate(work, args.seed)
    broken = checks.self_test(data["tables"], data["rejected"])
    if broken:
        print("error: output checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 1
    setup_s = measure_setup(work, env)

    if args.workload == "presentations":
        timed, extra = run_presentations(data, work, env, args.seconds)
    else:
        timed, extra = run_cli_workload(args.workload, data, work, env, args.seconds)
    wall_s = statistics.median(timed.walls)

    report = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
              **{k: (v, "s") for k, v in extra.items()},
              "peak_rss_mb": (timed.peak_mb, "MB"),
              "fail_rate": (timed.defective / timed.attempted, "ratio")}
    print(f"workload {args.workload}, seed {args.seed}: {len(timed.walls)} passes of "
          + ", ".join(f"{w:.3f}" for w in timed.walls) + f" s; {timed.failed} of "
          f"{timed.attempted} ops failed a check; {timed.histogram_moved} fingerprint "
          "histograms differ from the sample's (ROADMAP item 1)")
    for name, (value, unit) in report.items():
        print(f"  {name:14} {value:12.6f} {unit}")
    if args.workload != "presentations":
        for label, values in timed.latencies.items():
            print(f"  op {label:24} median {statistics.median(values):.3f} s")
    for problem in sorted(set(timed.problems))[:20]:
        print(f"  problem: {problem}")

    if args.trace:
        metrics = layer_metrics(args.workload, wall_s, data, work, env)
        for name, (value, unit) in metrics.items():
            print(f"  {name:38} {value:12.6f} {unit}")
    else:
        metrics = {k: report[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": timed.failed == 0,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
