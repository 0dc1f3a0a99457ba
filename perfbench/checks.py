"""Output checks that encode facts about the algebras, not recorded bytes.

Each check returns a list of problems; an empty list means the output is
correct.  Witness ranks and isomorphism witnesses are re-verified with the
independent rational code in ``inputs``.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import change_of_basis, orbit_dim

# verdicts that are true of the grid-workload inputs, whatever the basis:
# (allowed (verdict, max_dim) pairs, whether the maximality scan must hold)
VERDICTS = {
    "5.3.8": ({("IsMD", 2)}, True),
    "rejected.5.2.3": ({("NotMD", None)}, False),
    "rejected.5.2.3-wide": ({("NotMD", None)}, False),
    # MD with orbit dimensions 0 and 4; the parent program cannot prove it
    "aff-C-plus-R": ({("Inconclusive", None), ("IsMD", 4)}, False),
}

# pairs of default samples that are isomorphic (README "Known findings"),
# so ``separate`` must never call them separated
KNOWN_ISOMORPHIC = [
    ("5.2.2(l=2)", "5.2.2(l=-3)"),
    ("5.3.2(l=2)", "5.3.3(l=2)"),
    ("5.3.2(l=-3)", "5.3.3(l=-3)"),
    ("5.3.5(l=2)", "5.3.6(l=2)"),
    ("5.3.5(l=-3)", "5.3.6(l=-3)"),
]

DEFAULT_SAMPLE_COUNT = 42
DEFAULT_PAIR_COUNT = DEFAULT_SAMPLE_COUNT * (DEFAULT_SAMPLE_COUNT - 1) // 2


def _witness_problems(md: dict, table: dict, where: str) -> list:
    """A NotMD verdict needs two witnesses of distinct nonzero true rank."""
    problems = []
    ranks = set()
    for w in md.get("witnesses") or []:
        true_rank = orbit_dim(table, [Fraction(x) for x in w["F"]])
        if true_rank != w["rank"]:
            problems.append(f"{where}: witness F={w['F']} claims rank {w['rank']}, "
                            f"true rank {true_rank}")
        ranks.add(true_rank)
    if len(ranks - {0}) < 2:
        problems.append(f"{where}: NotMD without two distinct nonzero witness ranks")
    return problems


def check_record(name: str, record: dict, table: dict) -> list:
    """One ``check --json`` record against the verdict table."""
    if record.get("jacobi", {}).get("status") != "pass":
        return [f"{name}: Jacobi check did not pass"]
    md = record.get("md")
    if md is None:
        return [f"{name}: no MD analysis"]
    allowed, maximal = VERDICTS[name]
    verdict = md["verdict"]
    max_dim = md["max_dim"] if verdict == "IsMD" else None
    if (verdict, max_dim) not in allowed:
        return [f"{name}: verdict {verdict} max {md['max_dim']}, expected one of "
                f"{sorted(allowed, key=str)}"]
    problems = []
    if verdict == "NotMD":
        problems += _witness_problems(md, table, name)
    if verdict == "IsMD" and maximal and record.get("maximality") != "holds":
        problems.append(f"{name}: maximality is {record.get('maximality')!r}")
    return problems


def check_verify_catalog(doc: dict, tables: dict) -> list:
    """``verify-catalog --json`` over the default samples."""
    summary = doc["summary"]
    problems = []
    if summary["failures"]:
        problems.append(f"verify-catalog failures: {summary['failures']}")
    if summary["discrepancies"] != ["5.2.2"]:
        problems.append(f"verify-catalog discrepancies {summary['discrepancies']}")
    if summary["rejected_confirmed"] is not True:
        problems.append("verify-catalog did not confirm the rejected specimens")
    if len(doc["instances"]) != DEFAULT_SAMPLE_COUNT:
        problems.append(f"verify-catalog analysed {len(doc['instances'])} instances")
    for record in doc["instances"]:
        label = record["family"] + (f"({record['params']})" if record["params"] else "")
        md = record.get("md")
        if md and md["verdict"] == "NotMD":
            problems += _witness_problems(md, tables[label], label)
    return problems


def check_separate(doc: dict) -> list:
    """``separate default --json``: all pairs, no known-isomorphic pair separated."""
    pairs = doc["pairs"]
    problems = []
    if len(pairs) != DEFAULT_PAIR_COUNT:
        problems.append(f"separate reported {len(pairs)} pairs")
    outcome = {frozenset((p["a"], p["b"])): p for p in pairs}
    for a, b in KNOWN_ISOMORPHIC:
        p = outcome.get(frozenset((a, b)))
        if p is None:
            problems.append(f"separate has no pair {a} | {b}")
        elif p["outcome"] == "separated":
            problems.append(f"separate calls isomorphic {a} | {b} separated by {p['field']}")
    return problems


def basis_free(fingerprint: dict) -> dict:
    """The fingerprint without ``kirillov.histogram``.

    The radius-2 rank histogram counts grid points, so it depends on the
    basis; ``fingerprint`` documents that it is comparable across a change
    of basis only through ``transport`` (ROADMAP item 1 removes it).  Every
    other field is a fact about the algebra.
    """
    kirillov = {k: v for k, v in fingerprint.get("kirillov", {}).items() if k != "histogram"}
    return dict(fingerprint, kirillov=kirillov)


def histogram_differs(result: dict, canonical: dict) -> bool:
    """Whether a presentation's rank histogram differs from the sample's."""
    if "error" in result:
        return False
    return (result["fingerprint"].get("kirillov", {}).get("histogram")
            != canonical["fingerprint"].get("kirillov", {}).get("histogram"))


def check_presentation(result: dict, canonical: dict, table: dict, moved: dict) -> list:
    """One library op on a basis-changed presentation of a default sample.

    ``canonical`` holds the sample's own structural verdict and fingerprint.
    The fingerprint is computed without ``transport``, as ``liemd separate``
    does for two files, and its basis-free fields must equal the sample's.
    The basis-dependent histogram is counted by ``histogram_differs``.
    """
    if "error" in result:
        return [f"op raised {result['error']}"]
    problems = []
    if result["verdict"] != canonical["verdict"]:
        problems.append(f"structural verdict {result['verdict']} != {canonical['verdict']}")
    got, want = basis_free(result["fingerprint"]), basis_free(canonical["fingerprint"])
    if got != want:
        diff = sorted(k for k in want if got.get(k) != want[k])
        problems.append(f"fingerprint differs from the canonical one in {diff}")
    if canonical["codim1"]:
        iso = result.get("iso") or {}
        if iso.get("result") != "Iso":
            problems.append(f"iso test returned {iso.get('result')}")
        else:
            witness = [[Fraction(x) for x in row] for row in iso["witness"]]
            if change_of_basis(table, witness) != moved:
                problems.append("iso witness does not carry the sample to the presentation")
    return problems


# ---------------------------------------------------------------------------
# self-test: the checker must flag doctored outputs
# ---------------------------------------------------------------------------

def self_test(tables: dict, rejected: dict) -> list:
    """Problems with the checker itself; empty when every doctored output is flagged.

    ``tables`` maps default-sample labels to bracket tables and ``rejected``
    is the table of ``rejected.5.2.3`` ([X1, X2] = X5, [X3, X4] = X4).
    """
    good_md = {"verdict": "NotMD", "max_dim": None, "proof": None,
               "witnesses": [{"F": [0, 0, 0, 0, 1], "rank": 2},
                             {"F": [0, 0, 0, 1, 1], "rank": 4}]}
    good = {"jacobi": {"status": "pass"}, "md": good_md, "maximality": None}
    wrong_verdict = dict(good, md=dict(good_md, verdict="IsMD", max_dim=4))
    wrong_rank = dict(good, md=dict(good_md, witnesses=[
        {"F": [0, 0, 0, 0, 1], "rank": 4}, {"F": [0, 0, 0, 1, 1], "rank": 4}]))
    labels = sorted(tables)
    pairs = [{"a": a, "b": b, "outcome": "unresolved", "field": None}
             for i, a in enumerate(labels) for b in labels[i + 1:]]
    a, b = KNOWN_ISOMORPHIC[0]
    separated = [dict(p, outcome="separated", field="kirillov")
                 if {p["a"], p["b"]} == {a, b} else p for p in pairs]
    fp = {"dims": {"dim": 5, "center": 1},
          "kirillov": {"verdict": "IsMD", "max_dim": 4, "histogram": {"4": 9}},
          "spectral": {"acting_dim": 1}}
    canonical = {"verdict": ["IsMD", 4], "fingerprint": fp, "codim1": False}
    present = {"verdict": ["IsMD", 4], "fingerprint": fp, "iso": None}
    moved_hist = dict(present, fingerprint=dict(
        fp, kirillov=dict(fp["kirillov"], histogram={"4": 8})))
    wrong_center = dict(present, fingerprint=dict(fp, dims={"dim": 5, "center": 0}))

    failures = []
    if check_record("rejected.5.2.3", good, rejected):
        failures.append("a correct NotMD record was flagged")
    if not check_record("rejected.5.2.3", wrong_verdict, rejected):
        failures.append("a wrong verdict was not flagged")
    if not check_record("rejected.5.2.3", wrong_rank, rejected):
        failures.append("a NotMD witness with a wrong rank was not flagged")
    if check_separate({"pairs": pairs}):
        failures.append("a correct separation report was flagged")
    if not check_separate({"pairs": separated}):
        failures.append("a known-isomorphic pair reported separated was not flagged")
    if check_presentation(present, canonical, {}, {}) or histogram_differs(present, canonical):
        failures.append("a correct presentation result was flagged")
    if not check_presentation(wrong_center, canonical, {}, {}):
        failures.append("a presentation with a different center was not flagged")
    if check_presentation(moved_hist, canonical, {}, {}) or not histogram_differs(
            moved_hist, canonical):
        failures.append("a presentation whose histogram alone moved was misjudged")
    return failures
