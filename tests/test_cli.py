import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from liemd import cli, kirillov
from liemd.catalog import FamilyParams, build, default_samples, parse_params
from liemd.cli import main
from liemd.exact import MatrixQ, UnitPoint
from liemd.invariants import Fingerprint, IsoResult, PairOutcome, fingerprint
from liemd.kirillov import GridSpec, MDVerdict, RankProfile
from liemd.lie_core import LieAlgebra
from conftest import hidden_523, random_invertible


def write_algebra(path, g: LieAlgebra):
    path.write_text(json.dumps(g.to_dict()), encoding="utf-8")
    return str(path)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    """Exact stdout bytes recorded for a CLI invocation."""
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture
def g51_file(tmp_path):
    return write_algebra(tmp_path / "g51.json", build("5.1"))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_clean_analysis(g51_file, capsys):
    assert main(["check", g51_file]) == 0
    out = capsys.readouterr().out
    assert "IsMD" in out and "max orbit dimension 4" in out


def test_check_json_mode(g51_file, capsys):
    assert main(["check", g51_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["md"]["verdict"] == "IsMD"
    assert doc["md"]["max_dim"] == 4
    assert doc["jacobi"]["status"] == "pass"
    assert doc["derived_dims"] == [5, 1, 0]


def test_check_duplicate_bracket_exit2(tmp_path, capsys):
    doc = {"dim": 5, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"5": 1}},
        {"i": 1, "j": 2, "coeffs": {"4": 1}},
    ]}
    path = write_json(tmp_path / "dup.json", doc)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "(1, 2)" in err


def test_check_invalid_json_exit2_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 5,', encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def _deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return path, "nested too deeply"


def _long_integer(tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python does not limit integer literals")
    path = tmp_path / "digits.json"
    path.write_text('{"dim": ' + "9" * (limit + 1) + "}", encoding="utf-8")
    return path, "digits"


@pytest.mark.parametrize("command", ["check", "iso"])
@pytest.mark.parametrize("hostile", [_deeply_nested, _long_integer], ids=["deep", "digits"])
def test_hostile_json_exit2_without_traceback(command, hostile, tmp_path, capsys):
    # json.load raises RecursionError and ValueError on these, not
    # JSONDecodeError
    path, message = hostile(tmp_path)
    argv = [command, str(path)] + ([str(path)] if command == "iso" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_check_unknown_field_exit2(tmp_path, capsys):
    path = write_json(tmp_path / "unknown.json",
                      {"dim": 2, "brackets": [], "comment": "hi"})
    assert main(["check", path]) == 2
    assert "unknown fields" in capsys.readouterr().err


def test_check_garbage_coefficient_exit2(tmp_path, capsys):
    path = write_json(tmp_path / "coef.json", {
        "dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "x/y"}}]})
    assert main(["check", path]) == 2
    assert "rational" in capsys.readouterr().err


def test_check_bad_grid_flags_exit2(g51_file, capsys):
    assert main(["check", g51_file, "--grid-radius", "0"]) == 2


def test_huge_grids_fail_fast_exit2(g51_file, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("grid points were built")
    for name in ("tail_columns", "covector", "_tail"):
        monkeypatch.setattr(GridSpec, name, built)
    monkeypatch.setattr(kirillov.KirillovData, "rank", built)
    assert main(["check", g51_file, "--grid-radius", "1000"]) == 2
    assert f"grid has {2001 ** 5 + 200} points" in capsys.readouterr().err
    assert main(["check", g51_file, "--samples", str(10 ** 12)]) == 2
    assert f"grid has {5 ** 5 + 10 ** 12} points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-catalog", "--grid-radius", "3"],
    ["verify-catalog", "--samples", "5"],
    ["verify-catalog", "--seed", "2"],
    ["check", "FILE", "--seed", "2"],
], ids="_".join)
def test_fixed_grid_options_are_usage_errors(argv, g51_file, capsys):
    # verify-catalog runs on GridSpec() alone, and check always uses its seed
    argv = [g51_file if word == "FILE" else word for word in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: liemd ") and "unrecognized arguments: " in err


def test_check_caps_the_samples_exit2(g51_file, capsys, monkeypatch):
    def drawn(*args):
        raise AssertionError("tail drawn")
    monkeypatch.setattr(GridSpec, "_tail", drawn)
    assert main(["check", g51_file, "--samples", str(10 ** 6 + 1)]) == 2
    assert f"{10 ** 6 + 1} extra samples requested" in capsys.readouterr().err


def test_check_hostile_dimension_and_booleans_exit2(tmp_path, capsys):
    for name, doc in (("huge", {"dim": 10 ** 9, "brackets": []}),
                      ("bool-dim", {"dim": True, "brackets": []})):
        assert main(["check", write_json(tmp_path / f"{name}.json", doc)]) == 2
        assert "'dim' must be an integer from 0 to 32" in capsys.readouterr().err
    doc = {"dim": 3, "brackets": [{"i": True, "j": 2, "coeffs": {"3": 1}}]}
    assert main(["check", write_json(tmp_path / "bool-i.json", doc)]) == 2
    assert "integer indices" in capsys.readouterr().err


def test_check_jacobi_failure_exit3(tmp_path, capsys):
    bad = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"1": 1}},
        {"i": 1, "j": 3, "coeffs": {"2": 1}},
    ]}
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["check", path]) == 3
    out = capsys.readouterr().out
    assert "(1, 2, 3)" in out


def test_check_grid_flags_shape_the_histogram(g51_file, capsys):
    assert main(["check", g51_file, "--json",
                 "--grid-radius", "1", "--samples", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(doc["md"]["histogram"].values()) == 3 ** 5 + 5


@pytest.mark.parametrize("family, params", [
    ("5.3.8", "l=2,angle=3/5:4/5"),
    ("rejected.5.2.3", ""),
])
def test_check_json_matches_golden(family, params, tmp_path, monkeypatch, capsys):
    # check echoes its file argument, so the input has a fixed relative name
    monkeypatch.chdir(tmp_path)
    write_algebra(tmp_path / "algebra.json", build(family, parse_params(params)))
    assert main(["check", "algebra.json", "--json"]) == 0
    assert capsys.readouterr().out == golden(f"check_{family}.json")


SRC = Path(__file__).resolve().parent.parent / "src"


def run_importtime(args, cwd):
    """stdout of a ``python -X importtime`` run of ``args``, and every module
    it imported: -X importtime logs each module the process imports."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout, [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                        if line.startswith("import time:")]


def wide_523():
    # rejected.5.2.3 in a basis with an entry beyond 2^64: structure
    # constants beyond int64
    p = [[int(i == j) for j in range(5)] for i in range(5)]
    p[0][3], p[4][1], p[2][4] = 2 ** 64 + 3, 2 ** 33, -7
    return build("rejected.5.2.3").change_of_basis(MatrixQ(p))


# modules no command loads: the strata of every grid are counted in pure
# Python, scanned or not, the records are NamedTuples, because
# dataclasses pulls in inspect, ast, dis and tokenize at every start-up,
# and every command analyses its algebras in its own process, so nothing
# is pickled or handed to a process pool
FORBIDDEN_IMPORTS = {"numpy", "dataclasses", "inspect", "multiprocessing", "concurrent",
                     "pickle"}


def test_no_command_imports_numpy_or_dataclasses(tmp_path):
    write_algebra(tmp_path / "538.json", build("5.3.8", parse_params("l=2,angle=3/5:4/5")))
    write_algebra(tmp_path / "545.json", build("5.4.5"))
    write_algebra(tmp_path / "algebra.json", build("rejected.5.2.3"))
    wide = wide_523()
    assert max(abs(c.numerator) for v in wide.brackets.values() for c in v) >= 2 ** 63
    write_algebra(tmp_path / "wide.json", wide)
    write_algebra(tmp_path / "aff.json", LieAlgebra.from_brackets(5, AFF_C_PLUS_R))
    cli_args = ["-m", "liemd.cli"]
    for args in (
        ["-c", "import liemd.cli"],
        cli_args + ["check", "538.json", "--json", "--grid-radius", "6"],
        cli_args + ["orbit-dim", "538.json", "--f", "1,2,3,4,5"],
        cli_args + ["catalog", "build", "5.4.5"],
        cli_args + ["iso", "545.json", "545.json"],
        cli_args + ["verify-catalog", "--json"],
        cli_args + ["separate", "default", "--json"],
        cli_args + ["check", "algebra.json", "--json"],
        cli_args + ["check", "wide.json", "--json"],
        cli_args + ["check", "aff.json", "--json"],
        cli_args + ["fingerprint", "algebra.json"],
    ):
        stdout, imported = run_importtime(args, tmp_path)
        assert "liemd.kirillov" in imported, args
        assert not [m for m in imported if m.split(".")[0] in FORBIDDEN_IMPORTS], args
        if args[2:4] == ["check", "algebra.json"]:
            assert stdout == golden("check_rejected.5.2.3.json")


# each record with its required and its defaulted fields
RECORDS = [
    (UnitPoint, {"c": F(3, 5), "s": F(4, 5)}, {}),
    (FamilyParams, {}, {"lambdas": (), "mu": None, "angle": None}),
    (GridSpec, {}, {"radius": 2, "extra_random_samples": 200, "seed": 1}),
    (RankProfile, {"histogram": {0: 1}, "witnesses": {0: (0,)}}, {}),
    (MDVerdict, {"kind": "IsMD"},
     dict.fromkeys(["max_dim", "proof", "witness_low", "witness_high",
                    "max_rank_attained", "pfaffian_status", "samples_tested"])),
    (Fingerprint, {"dims": (5,), "kirillov": ("IsMD",), "spectral": (None,)}, {}),
    (IsoResult, {"kind": "Iso"}, dict.fromkeys(["witness", "field"])),
    (PairOutcome, {"a": "x", "b": "y", "outcome": "separated"}, {"field": None}),
]


@pytest.mark.parametrize("record, required, defaults", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
def test_records_keep_their_fields_and_refuse_assignment(record, required, defaults):
    # each record takes its fields by keyword, unpacks in that order and
    # compares equal to the plain tuple of them
    fields = {**required, **defaults}
    r = record(**required)
    assert tuple(r) == tuple(fields.values())
    for name, value in fields.items():
        assert getattr(r, name) == value
        with pytest.raises(AttributeError):
            setattr(r, name, value)


def test_liemd_runs_without_numpy(tmp_path):
    # with numpy made unimportable, a grid that is scanned still counts
    write_algebra(tmp_path / "algebra.json", build("rejected.5.2.3"))
    code = ("import sys; sys.modules['numpy'] = None; from liemd.cli import main; "
            "sys.exit(main(['check', 'algebra.json', '--json']))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout == golden("check_rejected.5.2.3.json")


# aff(C) + R: MD, but no exact rule decides it, so the verdict is
# Inconclusive and reports how many grid points were sampled
AFF_C_PLUS_R = [(1, 3, {3: 1}), (1, 4, {4: 1}), (2, 3, {4: -1}), (2, 4, {3: 1})]


@pytest.mark.parametrize("name, algebra", [
    ("5.3.8", lambda: build("5.3.8", parse_params("l=2,angle=3/5:4/5"))),
    ("aff_c_plus_r", lambda: LieAlgebra.from_brackets(5, AFF_C_PLUS_R)),
])
def test_check_radius4_json_matches_golden(name, algebra, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    write_algebra(tmp_path / "algebra.json", algebra())
    assert main(["check", "algebra.json", "--json", "--grid-radius", "4"]) == 0
    assert capsys.readouterr().out == golden(f"check_r4_{name}.json")


def analyze_counting(monkeypatch, family, params=""):
    """``cli._analyze`` on a catalog sample at the default grid, counting
    derived-ideal builds, md_check calls and strata counts."""
    counts = {"G1": 0, "md_check": 0, "strata": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    span = LieAlgebra.span_of_brackets

    def span_counted(self, left, right):
        counts["G1"] += left.dim == right.dim == self.dim
        return span(self, left, right)

    md_check = counted("md_check", kirillov.md_check)
    monkeypatch.setattr(LieAlgebra, "span_of_brackets", span_counted)
    monkeypatch.setattr(kirillov, "md_check", md_check)
    monkeypatch.setattr(cli, "md_check", md_check)
    monkeypatch.setattr(kirillov, "_count_strata", counted("strata", kirillov._count_strata))
    g = build(family, parse_params(params))
    return g, cli._analyze(g, GridSpec()), counts


def test_analyze_computes_each_fact_once(monkeypatch):
    # a structural IsMD verdict: md_check reads no grid, and the profile
    # reads one count of the strata
    _, record, counts = analyze_counting(monkeypatch, "5.3.8", "l=2,angle=3/5:4/5")
    assert record["md"]["verdict"] == "IsMD" and record["maximality"] == "holds"
    assert counts == {"G1": 1, "md_check": 1, "strata": 1}


def test_analyze_scans_a_nonstructural_grid_once(monkeypatch):
    # NotMD: the strata are counted once per grid, and md_check and the
    # profile both read that count
    g, record, counts = analyze_counting(monkeypatch, "rejected.5.2.3")
    assert record["md"]["verdict"] == "NotMD" and record["maximality"] is None
    assert counts == {"G1": 1, "md_check": 1, "strata": 1}
    # an equal grid built anew hashes equal and reads the same count
    assert hash(GridSpec(2, 200, 1)) == hash(GridSpec())
    kirillov.rank_profile(g, GridSpec(2, 200, 1))
    assert counts["strata"] == 1 and len(g.kirillov.strata) == 1


def test_adjoints_commute_is_exact():
    assert cli._adjoints_commute(build("5.3.4"))
    # commutative G^1 = <X3, X4>, but ad_X1 and ad_X2 do not commute on it
    table = LieAlgebra.from_brackets(4, [(1, 3, {3: 1}), (2, 3, {4: 1})])
    assert not cli._adjoints_commute(table)


def test_check_non_solvable_is_clean_without_verdict(tmp_path, capsys):
    sl2ish = LieAlgebra.from_brackets(
        3, [(1, 2, {3: 1}), (1, 3, {1: -2}), (2, 3, {2: 2})])
    path = write_algebra(tmp_path / "sl2.json", sl2ish)
    assert main(["check", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["md"] is None
    assert doc["solvable"] is False


# ---------------------------------------------------------------------------
# orbit-dim
# ---------------------------------------------------------------------------

def test_orbit_dim_basic(g51_file, capsys):
    assert main(["orbit-dim", g51_file, "--f", "0,0,0,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_orbit_dim_zero_covector(g51_file, capsys):
    assert main(["orbit-dim", g51_file, "--f", "0,0,0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_orbit_dim_rank_two(tmp_path, capsys):
    path = write_algebra(tmp_path / "g521.json", build("5.2.1"))
    assert main(["orbit-dim", path, "--f", "0,0,0,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_orbit_dim_shows_matrix(g51_file, capsys):
    assert main(["orbit-dim", g51_file, "--f", "0,0,0,0,1", "--show-matrix"]) == 0
    out = capsys.readouterr().out
    assert "b[i][j] = <F, [X_j, X_i]>" in out


def test_orbit_dim_arity_mismatch(g51_file, capsys):
    assert main(["orbit-dim", g51_file, "--f", "1,2"]) == 2
    assert "dimension" in capsys.readouterr().err


def test_orbit_dim_decimal_input_is_parsed_exactly(g51_file, capsys):
    # "0.5" is read as the exact rational 1/2, never as a float
    assert main(["orbit-dim", g51_file, "--f", "0.5,0,0,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_orbit_dim_rejects_garbage_coordinates(g51_file, capsys):
    assert main(["orbit-dim", g51_file, "--f", "a,b,c,d,e"]) == 2


# ---------------------------------------------------------------------------
# catalog build
# ---------------------------------------------------------------------------

def test_catalog_build_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g538.json"
    assert main(["catalog", "build", "5.3.8", "l=1,angle=3/5:4/5",
                 "-o", str(out_path)]) == 0
    loaded = LieAlgebra.from_dict(json.loads(out_path.read_text()))
    expected = build("5.3.8", FamilyParams(
        lambdas=(1,), angle=UnitPoint(F(3, 5), F(4, 5))))
    assert loaded.brackets == expected.brackets


def test_catalog_build_invalid_params(capsys):
    assert main(["catalog", "build", "5.4.1", "l1=2,l2=2,l3=3"]) == 2
    assert "λ1 ≠ λ2" in capsys.readouterr().err


def test_catalog_build_to_stdout(capsys):
    assert main(["catalog", "build", "rejected.5.2.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 5


# ---------------------------------------------------------------------------
# fingerprint / iso / separate
# ---------------------------------------------------------------------------

def test_fingerprint_command(g51_file, capsys):
    assert main(["fingerprint", g51_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"]["derived"] == [5, 1, 0]
    assert doc["kirillov"]["verdict"] == "IsMD"


def test_iso_command_on_basis_changed_copy(tmp_path, capsys):
    g = build("5.4.5")
    moved = g.change_of_basis(MatrixQ([
        [1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 2, 1, 0, 0],
        [0, 0, 0, 1, 0], [0, 0, 0, -1, 1]]))
    a = write_algebra(tmp_path / "a.json", g)
    b = write_algebra(tmp_path / "b.json", moved)
    assert main(["iso", a, b, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "Iso"
    assert "witness" in doc


def test_iso_command_not_iso(tmp_path, capsys):
    a = write_algebra(tmp_path / "a.json", build("5.4.3", FamilyParams(lambdas=(2,))))
    b = write_algebra(tmp_path / "b.json", build("5.4.4", FamilyParams(lambdas=(2,))))
    assert main(["iso", a, b]) == 0
    assert "NotIso" in capsys.readouterr().out


@pytest.mark.parametrize("algebra, message", [
    (LieAlgebra.from_brackets(3, [(1, 2, {2: 1})]), "dimension 5"),
    (LieAlgebra.from_brackets(5, [(1, 2, {3: 1}), (1, 3, {1: -2}), (2, 3, {2: 2})]),
     "solvable"),
    (LieAlgebra.from_brackets(5, [(1, 2, {1: 1}), (1, 3, {2: 1})]), "Jacobi"),
], ids=["dim3", "sl2_plus_r2", "jacobi"])
def test_fingerprint_and_separate_reject_unsupported_input_exit2(
        algebra, message, tmp_path, g51_file, capsys):
    path = write_algebra(tmp_path / "bad.json", algebra)
    assert main(["fingerprint", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["separate", g51_file, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _jacobi_failure_orbit_dim(tmp_path):
    bad = LieAlgebra.from_brackets(5, [(1, 2, {1: 1}), (1, 3, {2: 1})])
    return ["orbit-dim", write_algebra(tmp_path / "bad.json", bad), "--f", "1,0,0,0,0"]


def _latin1_check(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dim": 1, "brackets": [], "name": "\u00e9"}'.encode("latin-1"))
    return ["check", str(path)]


@pytest.mark.parametrize("argv, message", [
    (_jacobi_failure_orbit_dim, "Jacobi"),
    (lambda tmp_path: ["catalog", "build", "9.9"], "unknown family id '9.9'"),
    (lambda tmp_path: ["catalog", "build", "5.2.2", "l1=2,l=3"],
     "bad parameters: repeated parameter 'l=3'"),
    (_latin1_check, "cannot read"),
    (lambda tmp_path: ["catalog", "build", "5.1", "-o", str(tmp_path / "no-dir" / "x.json")],
     "cannot write"),
], ids=["orbit-dim-jacobi", "unknown-family", "repeated-parameter", "not-utf8",
        "unwritable-output"])
def test_cli_errors_exit2_without_traceback(argv, message, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _moved(family: str, params: str, seed: int) -> LieAlgebra:
    g = build(family, parse_params(params))
    return g.change_of_basis(random_invertible(random.Random(seed), 5))


# witness bytes: a cyclic and a derogatory ad action against a seeded
# basis change of themselves, and a pair the scaled-similarity test splits
@pytest.mark.parametrize("name, a, b", [
    ("5.4.14", lambda: build("5.4.14", parse_params("l=2,mu=1,angle=3/5:4/5")),
     lambda: _moved("5.4.14", "l=2,mu=1,angle=3/5:4/5", 11)),
    ("5.4.3", lambda: build("5.4.3", parse_params("l=2")),
     lambda: _moved("5.4.3", "l=2", 12)),
    ("not_iso", lambda: build("5.4.3", parse_params("l=2")),
     lambda: build("5.4.4", parse_params("l=2"))),
])
def test_iso_json_matches_golden(name, a, b, tmp_path, monkeypatch, capsys):
    # iso echoes its file arguments, so the inputs have fixed relative names
    monkeypatch.chdir(tmp_path)
    write_algebra(tmp_path / "a.json", a())
    write_algebra(tmp_path / "b.json", b())
    assert main(["iso", "a.json", "b.json", "--json"]) == 0
    assert capsys.readouterr().out == golden(f"iso_{name}.json")


def test_iso_command_precondition_exit2(tmp_path, capsys):
    a = write_algebra(tmp_path / "a.json", build("5.3.4"))
    assert main(["iso", a, a]) == 2


def test_iso_command_checks_jacobi_before_dimensions(tmp_path, capsys):
    # [X1,X2] = X3, [X1,X3] = X1 fails Jacobi at (1, 2, 3); that its dimension
    # differs from the 5.3.8 sample's must not answer NotIso
    bad = LieAlgebra.from_brackets(3, [(1, 2, {3: 1}), (1, 3, {1: 1})])
    a = write_algebra(tmp_path / "a.json", bad)
    b = write_algebra(tmp_path / "b.json", build("5.3.8", parse_params("l=2,angle=3/5:4/5")))
    assert main(["check", a]) == 3
    capsys.readouterr()
    for args in ([a, b], [b, a], [a, b, "--json"]):
        assert main(["iso", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Jacobi identity fails at triple (1, 2, 3)" in captured.err


def test_separate_default_json_matches_golden(capsys):
    assert main(["separate", "default", "--json"]) == 0
    assert capsys.readouterr().out == golden("separate_default.json")


def test_separate_files(tmp_path, capsys):
    a = write_algebra(tmp_path / "a.json", build("5.1"))
    b = write_algebra(tmp_path / "b.json", build("5.2.1"))
    assert main(["separate", a, b, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pairs"]) == 1
    assert doc["pairs"][0]["outcome"] == "separated"


def test_a_grid_that_misses_the_rank_2_locus_splits_nothing(tmp_path, capsys):
    # check reports what its grid saw in the presentation it is given, so
    # the two presentations differ there; fingerprint and separate read no
    # grid, so they do not
    a = write_algebra(tmp_path / "r523.json", build("rejected.5.2.3"))
    b = write_algebra(tmp_path / "hidden.json", hidden_523())
    for path, verdict in ((a, "NotMD"), (b, "Inconclusive")):
        assert main(["check", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["md"]["verdict"] == verdict
    prints = []
    for path in (a, b):
        assert main(["fingerprint", path]) == 0
        prints.append({**json.loads(capsys.readouterr().out), "file": None})
    assert prints[0] == prints[1]
    assert prints[0]["kirillov"] == {"verdict": "unproved", "max_dim": None,
                                     "pfaffians_all_zero": False}
    assert main(["separate", a, b, "--json"]) == 0
    [pair] = json.loads(capsys.readouterr().out)["pairs"]
    assert pair["outcome"] == "unresolved"


def test_fingerprint_and_separate_read_no_grid(monkeypatch, capsys):
    def untouched(*args):
        raise AssertionError("grid read")

    for name in ("covector", "tail_columns"):
        monkeypatch.setattr(GridSpec, name, untouched)
    monkeypatch.setattr(kirillov, "_count_strata", untouched)
    for fid, params in default_samples():
        fingerprint(build(fid, params))
    assert main(["separate", "default", "--json"]) == 0
    assert capsys.readouterr().out == golden("separate_default.json")


# ---------------------------------------------------------------------------
# serial catalog commands
# ---------------------------------------------------------------------------

def test_catalog_commands_fork_nothing_on_two_cpus(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify-catalog", "--json"]) == 0
    assert capsys.readouterr().out == golden("verify_catalog.json")
    assert main(["separate", "default", "--json"]) == 0
    assert capsys.readouterr().out == golden("separate_default.json")


@pytest.mark.parametrize("goods", [1, 2])
def test_separate_names_the_first_failing_file(goods, tmp_path, capsys):
    # goods valid files come first; the first failing file in input order is
    # reported wherever it sits in the list
    good = [write_algebra(tmp_path / f"good{i}.json", build("5.1"))
            for i in range(goods)]
    bad = LieAlgebra.from_brackets(5, [(1, 2, {1: 1}), (1, 3, {2: 1})])
    bad1 = write_algebra(tmp_path / "bad1.json", bad)
    bad2 = write_algebra(tmp_path / "bad2.json", bad)
    assert main(["separate", *good, bad1, bad2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad1}: ") and "Jacobi" in captured.err


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_json():
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify-catalog", "--json"])
    return code, buf.getvalue()


def test_verify_catalog_exits_clean(verify_json):
    code, _ = verify_json
    assert code == 0


def test_verify_catalog_structure(verify_json):
    _, out = verify_json
    doc = json.loads(out)
    assert doc["summary"]["families"] == 25
    assert doc["summary"]["rejected_confirmed"] is True
    assert doc["summary"]["failures"] == []
    assert doc["summary"]["discrepancies"] == ["5.2.2"]
    assert doc["config"] == {"grid_radius": 2, "samples": 200, "seed": 1}


def test_verify_catalog_flags_known_discrepancy(verify_json):
    _, out = verify_json
    doc = json.loads(out)
    records = [r for r in doc["instances"] if r["family"] == "5.2.2"]
    assert records
    for r in records:
        d = r["discrepancy"]
        assert d["found"] == "NotMD"
        assert {"F": [0, 0, 0, 1, 0], "rank": 2} in d["witnesses"]
        assert {"F": [0, 0, 0, 0, 1], "rank": 4} in d["witnesses"]


def test_verify_catalog_confirms_rejections(verify_json):
    _, out = verify_json
    doc = json.loads(out)
    rejected = [r for r in doc["instances"] if r["family"].startswith("rejected")]
    assert len(rejected) == 2
    for r in rejected:
        assert r["md"]["verdict"] == "NotMD"
        ranks = sorted(w["rank"] for w in r["md"]["witnesses"])
        assert ranks == [2, 4]


def test_verify_catalog_reports_maximality(verify_json):
    _, out = verify_json
    doc = json.loads(out)
    for r in doc["instances"]:
        if r["md"] and r["md"]["verdict"] == "IsMD":
            assert r["maximality"] == "holds"


def test_verify_catalog_json_matches_golden(verify_json):
    _, out = verify_json
    assert out == golden("verify_catalog.json")


def test_maximality_comes_from_the_proof(monkeypatch, capsys):
    # every IsMD rule proves the maximality that the output reports, so no
    # command scans a grid for a violator
    def scanned(*args, **kwargs):
        raise AssertionError("maximality scanned on a grid")
    monkeypatch.setattr(cli, "nonvanishing_maximality_check", scanned, raising=False)
    assert main(["verify-catalog", "--json"]) == 0
    assert capsys.readouterr().out == golden("verify_catalog.json")


def test_verify_catalog_json_round_trips(verify_json):
    _, out = verify_json
    doc = json.loads(out)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_verify_catalog_is_byte_deterministic(verify_json):
    import io
    import contextlib
    _, first = verify_json
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["verify-catalog", "--json"])
    assert buf.getvalue() == first


def test_no_floats_anywhere_in_reports(verify_json):
    _, out = verify_json

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into report")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))
