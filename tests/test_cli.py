"""End-to-end command tests driving cli.main with in-process argv."""

import concurrent.futures
import copy
import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from gavindex import acomplex, classify, cli, gav_core, polyhedra
from gavindex.gav_core import fan_from_index_sets

DATA = pathlib.Path(__file__).parent / "data"
NOT_GENERATING = "columns of P must generate the ambient space as a cone"

WORKED = {
    "r": 2,
    "c": 1,
    "n": [2, 1, 1],
    "m": 0,
    "l": [[2, 1], [2], [3]],
    "A": [["-1", "1", "0"], ["-1", "0", "1"]],
    "D": [[-1, -2, 1, 2]],
    "fan": [[0, 2, 3], [1, 2, 3], [0, 1]],
}

# The README's bare fan document for gorenstein --toric (index 3).
TORIC = {"rays": [[1, 0], [0, 1], [-1, -3]], "fan": [[0, 1], [1, 2], [0, 2]]}

# Without a listed fan, gorenstein finds this document not Fano (exit 2).
NOT_FANO = {
    "r": 2, "c": 1, "n": [1, 2, 2], "m": 0,
    "l": [[2], [1, 1], [1, 2]],
    "A": [["-1", "1", "0"], ["-1", "0", "1"]],
    "D": [[-1, 0, 1, 0, 0], [0, 0, 0, 0, 1]],
}


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_validate_worked_document(capsys, worked_file):
    code, report = run(capsys, "validate", worked_file)
    assert code == 0
    assert report["valid"] is True and report["violations"] == []


def test_validate_duplicate_column(capsys, tmp_path):
    # equal exponents plus an equal free row make the first two columns match
    doc = dict(WORKED, l=[[2, 2], [2], [3]], D=[[1, 1, 1, 2]], fan=None)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "validate", str(path))
    assert code == 1
    assert any("pairwise different" in v for v in report["violations"])


def test_validate_truncated_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(WORKED)[:40])
    code, report = run(capsys, "validate", str(path))
    assert code == 1
    assert "parse error at line" in report["error"]


def test_missing_file(capsys):
    code, report = run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 1
    assert "cannot read" in report["error"]


def test_missing_fields(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"r": 2, "c": 1}')
    code, report = run(capsys, "validate", str(path))
    assert code == 1
    assert "missing fields" in report["error"]


def _with_entry(field, value):
    """The README document with the first entry of a matrix field replaced."""
    rows = [list(row) for row in WORKED[field]]
    rows[0][0] = value
    return dict(WORKED, **{field: rows})


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with_entry("D", -1.5), "expected an integer, got -1.5"),
        (_with_entry("D", True), "expected an integer, got true"),
        (_with_entry("A", "1/0"), "malformed field"),
        (_with_entry("A", "1e999999999"), "exponent notation"),
    ],
    ids=["fractional-integer", "boolean-integer", "zero-denominator", "huge-exponent"],
)
def test_malformed_values_are_refused(capsys, tmp_path, doc, message):
    # these documents used to be truncated to index 12, read as index 5,
    # end in a traceback, or expand one entry to a billion digits
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "gorenstein", str(path))
    assert code == 1
    assert message in report["error"]


def test_info_degrees_and_anticanonical(capsys, worked_file):
    code, report = run(capsys, "info", worked_file)
    assert code == 0
    assert report["free_rank"] == 1
    labels = [d["label"] for d in report["degrees"]]
    assert labels == ["v01", "v02", "v11", "v21"]
    assert [d["free"] for d in report["degrees"]] == [[5], [8], [9], [6]]
    assert report["anticanonical"]["free"] == [10]


def test_fan_classifications(capsys, worked_file):
    code, report = run(capsys, "fan", worked_file)
    assert code == 0
    assert report["source"] == "listed"
    cones = {tuple(c["columns"]): c for c in report["maximal_cones"]}
    assert cones[(0, 2, 3)]["kind"] == "big"
    assert cones[(0, 2, 3)]["elementary"] is True
    assert cones[(0, 1)]["kind"] == "leaf"
    assert cones[(0, 1)]["labels"] == ["v01", "v02"]


def test_fan_defaults_to_anticanonical(capsys, tmp_path):
    doc = {k: v for k, v in WORKED.items() if k != "fan"}
    path = tmp_path / "nofan.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "fan", str(path))
    assert code == 0
    assert report["source"] == "anticanonical"
    assert len(report["maximal_cones"]) == 3


def test_labels_of_projective_20_space_are_distinct(capsys):
    # block 1's column and extra column 11 would both be v11
    path = str(DATA / "projective-20-space.json")
    code, report = run(capsys, "info", path)
    assert code == 0
    labels = [d["label"] for d in report["degrees"]]
    assert len(set(labels)) == len(labels) == 21
    assert labels[:3] == ["v0_1", "v1_1", "s1"] and labels[-1] == "s19"
    code, report = run(capsys, "fan", path)
    assert code == 0
    for cone in report["maximal_cones"]:
        assert cone["labels"] == [labels[j] for j in cone["columns"]]


def test_fan_bad_index(capsys, tmp_path):
    doc = dict(WORKED, fan=[[0, 2, 9]])
    path = tmp_path / "badfan.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "fan", str(path))[0] == 1


def test_trop_leaves(capsys, worked_file):
    code, report = run(capsys, "trop", worked_file)
    assert code == 0
    assert report["ambient"] == 3 and report["lineality_dim"] == 1
    assert [leaf["indices"] for leaf in report["leaves"]] == [[0], [1], [2]]


def test_acomplex_distances_and_multipliers(capsys, worked_file):
    code, report = run(capsys, "acomplex", worked_file)
    assert code == 0
    assert report["gorenstein_index"] == 12
    distances = sorted(c["distance"] for c in report["boundary_cells"])
    assert distances == [1, 1, 1, 2, 3, 4, 4]
    vertices = {tuple(Fraction(x) for x in v) for v in report["vertices"]}
    assert (0, 0, 2) in vertices and (0, 0, -1) in vertices
    mults = {tuple(m["columns"]): m["multiplier"] for m in report["cone_multipliers"]}
    assert mults == {(0, 2, 3): 4, (1, 2, 3): 1, (0, 1): 3}


def test_cell_independence_check_stays_live(capsys, monkeypatch, worked_file, worked):
    # halving the form of the last block index moves every cell it cuts
    real = acomplex._support_for_index

    def perturbed(data, parent, i, inside):
        w, q = real(data, parent, i, inside)
        return (w, 2 * q) if i == data.r else (w, q)

    monkeypatch.setattr(acomplex, "_support_for_index", perturbed)
    fan = fan_from_index_sets(worked, WORKED["fan"])
    message = "truncated cell depends on the block index or parent"
    with pytest.raises(AssertionError, match=message):
        acomplex.build_complex(worked, fan)
    code, report = run(capsys, "acomplex", worked_file)
    assert code == 3
    assert message in report["error"]


def test_multiplier_independence_check_stays_live(capsys, monkeypatch, worked_file, worked):
    # the last block index's multiplier is scaled by 7
    real = acomplex.min_integral_multipliers

    def perturbed(m, rhs):
        found = real(m, rhs)
        return found[:-1] + [7 * found[-1]]

    monkeypatch.setattr(acomplex, "min_integral_multipliers", perturbed)
    fan = fan_from_index_sets(worked, WORKED["fan"])
    message = "cone multiplier depends on the block index"
    with pytest.raises(AssertionError, match=message):
        acomplex.cone_multiplier(worked, fan.maximal[0], fan.index_sets[0])
    code, report = run(capsys, "acomplex", worked_file)
    assert code == 3
    assert message in report["error"]


def test_gorenstein_both(capsys, worked_file):
    code, report = run(capsys, "gorenstein", worked_file, "--method", "both")
    assert code == 0
    assert report["gorenstein_index"] == 12
    assert report["via_complex"] == report["via_cones"] == 12


def test_gorenstein_single_methods(capsys, worked_file):
    for method in ("complex", "cones"):
        code, report = run(capsys, "gorenstein", worked_file, "--method", method)
        assert code == 0 and report["gorenstein_index"] == 12


def test_gorenstein_mismatch_is_breach(capsys, worked_file, monkeypatch):
    monkeypatch.setattr(cli, "gorenstein_index_via_cones", lambda d, f: 99)
    code, report = run(capsys, "gorenstein", worked_file, "--method", "both")
    assert code == 3
    assert "invariant breach" in report["error"]


def test_gorenstein_affine_zero_cone(capsys, tmp_path):
    # A listed fan need not be complete; the zero cone alone defines the
    # affine case, where no cone condition constrains K_X.
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(dict(WORKED, fan=[[]])))
    code, report = run(capsys, "gorenstein", str(path))
    assert code == 0
    assert report["gorenstein_index"] == report["via_complex"] == report["via_cones"] == 1


# One cone on three columns with exponents (2, 3, l2).  With l2 = 7 the
# variety is not log terminal (1/2 + 1/3 + 1/7 < 1): some support forms
# are positive on part of their piece, so build_complex truncates those
# pieces through polyhedra._lifted_cut.  With l2 = 5 every cut is direct.
LIFTED = {
    "r": 2, "c": 1, "n": [1, 1, 1], "m": 0,
    "l": [[2], [3], [7]],
    "A": [["-1", "1", "0"], ["-1", "0", "1"]],
    "D": [[1, 1, 1]],
    "fan": [[0, 1, 2]],
}


@pytest.mark.parametrize("l2, index, lifted", [(7, 41, 3), (5, 31, 0)])
def test_gorenstein_through_the_lifted_cut(capsys, tmp_path, monkeypatch, l2, index, lifted):
    calls = []
    real = polyhedra._lifted_cut
    monkeypatch.setattr(polyhedra, "_lifted_cut", lambda *args: calls.append(args) or real(*args))
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(dict(LIFTED, l=[[2], [3], [l2]])))
    code, report = run(capsys, "gorenstein", str(path))
    assert code == 0
    assert report["via_complex"] == report["via_cones"] == index
    assert len(calls) == lifted


def test_gorenstein_toric_plane(capsys, tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(
        json.dumps({"rays": [[1, 0], [0, 1], [-1, -1]], "fan": [[0, 1], [1, 2], [2, 0]]})
    )
    code, report = run(capsys, "gorenstein", str(path), "--toric")
    assert code == 0 and report["gorenstein_index"] == 1


def test_gorenstein_toric_rejects_inconsistent_cone(capsys, tmp_path):
    # four extreme rays with no common supporting level, even rationally
    rays = [[1, 0, 0], [0, 1, 0], [1, 2, 3], [2, 1, 4]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rays": rays, "fan": [[0, 1, 2, 3]]}))
    code, report = run(capsys, "gorenstein", str(path), "--toric")
    assert code == 2
    assert "integral" in report["error"]


def test_gorenstein_not_fano_without_fan(capsys, tmp_path):
    path = tmp_path / "notfano.json"
    path.write_text(json.dumps(NOT_FANO))
    code, report = run(capsys, "gorenstein", str(path))
    assert code == 2
    assert "error" in report


# Wide documents, found once with bench/gen.py's random shapes
# (1, 1, 9, (6, 6), 0), (1, 1, 14, (8, 8), 0) and (1, 1, 13, (8, 8), 0),
# and projective 20-space with r = c = 1 and every exponent 1.


@pytest.mark.parametrize(
    "name, columns, free_rank",
    [("fano-12-columns", 12, 2), ("fano-16-columns", 16, 1), ("projective-20-space", 21, 1)],
)
def test_wide_fano_documents(capsys, name, columns, free_rank):
    path = str(DATA / f"{name}.json")
    data, _ = cli.parse_input(pathlib.Path(path).read_text())
    assert (data.num_cols, gav_core.degree_map(data).free_rank) == (columns, free_rank)
    code, report = run(capsys, "gorenstein", path)
    assert code == 0
    assert report["via_complex"] == report["via_cones"] == report["gorenstein_index"]
    if name == "projective-20-space":
        assert report["gorenstein_index"] == 1


def test_wide_document_whose_columns_do_not_generate(capsys):
    code, report = run(capsys, "gorenstein", str(DATA / "not-generating-16-columns.json"))
    assert code == 2
    assert report == {"error": NOT_GENERATING}


# Reports of the four documents in tests/data and the README document,
# recorded before cone relations were decided by projection and by one
# relative-interior point; the change must leave them byte for byte.
# fan and acomplex reports are pinned by the sha256 of stdout, since the
# acomplex report of the 16-column document is 560 KB.
I12 = 126649236783073456977475772682408937045909707014757401904348178530000
I16 = 1365283729701982218420904084833830276799747453055153985372926771641922480071740934159372000
NOT_GENERATING_REPORT = (2, {"error": NOT_GENERATING})
PINNED_REPORTS = {
    ("fano-12-columns", "gorenstein"): (0, {
        "command": "gorenstein", "gorenstein_index": I12, "method": "both",
        "via_complex": I12, "via_cones": I12}),
    ("fano-12-columns", "gorenstein --method cones"): (0, {
        "command": "gorenstein", "gorenstein_index": I12, "method": "cones", "via_cones": I12}),
    ("fano-16-columns", "gorenstein"): (0, {
        "command": "gorenstein", "gorenstein_index": I16, "method": "both",
        "via_complex": I16, "via_cones": I16}),
    ("fano-16-columns", "gorenstein --method cones"): (0, {
        "command": "gorenstein", "gorenstein_index": I16, "method": "cones", "via_cones": I16}),
    ("not-generating-16-columns", "gorenstein"): NOT_GENERATING_REPORT,
    ("not-generating-16-columns", "gorenstein --method cones"): NOT_GENERATING_REPORT,
    ("projective-20-space", "gorenstein"): (0, {
        "command": "gorenstein", "gorenstein_index": 1, "method": "both",
        "via_complex": 1, "via_cones": 1}),
    ("projective-20-space", "gorenstein --method cones"): (0, {
        "command": "gorenstein", "gorenstein_index": 1, "method": "cones", "via_cones": 1}),
    ("README", "gorenstein"): (0, {
        "command": "gorenstein", "gorenstein_index": 12, "method": "both",
        "via_complex": 12, "via_cones": 12}),
    ("README", "gorenstein --method cones"): (0, {
        "command": "gorenstein", "gorenstein_index": 12, "method": "cones", "via_cones": 12}),
}
NOT_GENERATING_SHA256 = (2, "11a7ca5e9172405640061f82e8cd491c1cb1c2d7a0a809fff48061ff68effd18")
PINNED_SHA256 = {
    ("fano-12-columns", "fan"): (0, "725e001a76cd78c5ccd6e683b703789fa4f0aa17fccad4f3e587502387ad7bdb"),
    ("fano-12-columns", "acomplex"): (0, "5c54e34d60eba6e372c117df5fde226bc7cf09efd13798d4b0a40f145816a460"),
    ("fano-16-columns", "fan"): (0, "deeab90b4d093af182608dae582bbecbef7dcb9985a0ccb4d9692692c5464e68"),
    ("fano-16-columns", "acomplex"): (0, "2fd5bd37134d622a096e352257be5405efad155d889b9e410418ea3c4b5ffceb"),
    ("not-generating-16-columns", "fan"): NOT_GENERATING_SHA256,
    ("not-generating-16-columns", "acomplex"): NOT_GENERATING_SHA256,
    # labels v0_1, v1_1 and s1..s19, since v{i}{j} and v{k} collide at v11
    ("projective-20-space", "fan"): (0, "5904c8bcbbbf37023f6ee9254f2bc100afa3f3b11cab08fabbff2589d869d427"),
    ("projective-20-space", "acomplex"): (0, "b73f9de34d59dc1f64021019a7321f1427adf7f9105a5d5035055394733cf6ef"),
    ("README", "fan"): (0, "79212f93cb7bbea1129892665216888e463b51099d3ae5896b1a5dee3f7409c9"),
    ("README", "acomplex"): (0, "580eb104519d858f2fe2b852ae0e391aa38cdd124cb770c9c285c0c0d1d1e178"),
}


def test_reports_of_pinned_documents_stay_byte_identical(capsys, tmp_path):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    # the first JSON block of the README is its input document
    readme_doc = tmp_path / "README.json"
    readme_doc.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    paths = {name: DATA / f"{name}.json" for name, _ in PINNED_REPORTS}
    paths["README"] = readme_doc

    def report(name, command):
        code = cli.main(command.split() + [str(paths[name])])
        return code, capsys.readouterr().out

    for (name, command), (code, want) in PINNED_REPORTS.items():
        text = json.dumps(want, indent=2, sort_keys=True) + "\n"
        assert report(name, command) == (code, text), (name, command)
    for (name, command), (code, want) in PINNED_SHA256.items():
        got, out = report(name, command)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, want), (name, command)


def test_ample_fan_search_budget(capsys, monkeypatch, tmp_path):
    # the worked example has four columns and free rank one: four subsets
    monkeypatch.setattr(gav_core, "FACE_BUDGET", 3)
    path = tmp_path / "nofan.json"
    path.write_text(json.dumps({k: v for k, v in WORKED.items() if k != "fan"}))
    code, report = run(capsys, "fan", str(path))
    assert code == 1
    assert report == {"error": "face enumeration over 4 subsets refused (budget 3)"}


def test_classify_cap(capsys):
    code, report = run(capsys, "classify", "--index", "9")
    assert code == 1 and "between 1 and 5" in report["error"]


def test_classify_setting_five(capsys):
    code, report = run(capsys, "classify", "--index", "1", "--settings", "5")
    assert code == 0
    (s5,) = report["settings"]
    assert s5["enumerated"] == [[3, -2], [4, -3], [6, -5]]
    assert [c["params"] for c in s5["accepted"]] == [[3, -2], [4, -3]]
    assert s5["rejected"] == [
        {"params": [6, -5], "reason": "index_mismatch", "detail": 2}
    ]
    assert len(report["groups"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_classify_refuses_jobs_below_one(capsys, jobs):
    code, report = run(capsys, "classify", "--index", "1", "--jobs", jobs)
    assert code == 1
    assert report == {"command": "classify", "error": "jobs must be at least 1"}


@pytest.mark.parametrize("cpus, workers", [(4, [3]), (2, [2]), (None, [])])
def test_classify_pool_is_bounded(capsys, monkeypatch, cpus, workers):
    # A pool may fork all its workers at its first task, so --jobs must
    # not reach it unbounded.  The stand-in pool records its size and
    # maps in this process, so no worker is ever started.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    argv = ("classify", "--index", "1", "--settings", "5")
    serial = run(capsys, *argv)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
    # setting 5 has three tuples at index 1
    assert run(capsys, *argv, "--jobs", "100000") == serial
    assert sizes == workers


def test_classify_jobs_do_not_change_bytes(tmp_path, capsys):
    paths = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report{jobs}.json"
        code = cli.main(
            ["classify", "--index", "1", "--settings", "1,5",
             "--jobs", jobs, "--out", str(out)]
        )
        assert code == 0
        paths.append(out.read_bytes())
    capsys.readouterr()
    assert paths[0] == paths[1]


def test_box_search(capsys):
    code, report = run(
        capsys, "oracle", "box-search",
        "--setting", "5", "--index", "1", "--bound", "30",
    )
    assert code == 0
    assert report["accepted"] == [[3, -2], [4, -3]]


BOX = "oracle box-search"


@pytest.mark.parametrize(
    "index, bound, expected",
    [
        (1, 0, {"error": "bound must be a positive integer"}),
        (1, cli.BOUND_CAP + 1, {"command": BOX, "error": "bound must be at most 500"}),
        (cli.INDEX_CAP + 1, 60, {"command": BOX, "error": "index must be at most 5"}),
    ],
    ids=["bound-zero", "bound-above-cap", "index-above-cap"],
)
def test_box_search_bad_bound(capsys, index, bound, expected):
    code, report = run(
        capsys, "oracle", "box-search",
        "--setting", "2", "--index", str(index), "--bound", str(bound),
    )
    assert code == 1 and report == expected


@pytest.mark.parametrize("command", ["validate", "fan", "gorenstein"])
def test_listed_fan_must_meet_in_faces(capsys, tmp_path, command):
    # all four columns span the whole space, which strictly contains the
    # cone on columns 0, 2, 3 without having it as a face
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(dict(WORKED, fan=[[0, 1, 2, 3], [0, 2, 3]])))
    code, report = run(capsys, command, str(path))
    assert code == 1
    message = "cones do not intersect in common faces"
    if command == "validate":
        assert report["violations"] == [f"fan: {message}"]
    else:
        assert report == {"error": message}


VERDICT_COMMANDS = (
    ["validate"],
    ["fan"],
    ["acomplex"],
    ["gorenstein"],
    ["gorenstein", "--method", "complex"],
    ["gorenstein", "--method", "cones"],
)


def test_listed_fan_gets_one_verdict_from_every_command(capsys, tmp_path):
    # two of the three cones: leaf 0 is not covered, the index is 4
    path = tmp_path / "noncovering.json"
    path.write_text(json.dumps(dict(WORKED, fan=[[0, 2, 3], [1, 2, 3]])))
    for command in VERDICT_COMMANDS:
        code, report = run(capsys, *command, str(path))
        assert code == 0, (command, report)
        if command[0] == "validate":
            assert report["valid"] is True
        elif command[0] != "fan":
            assert report["gorenstein_index"] == 4
    # a cone on columns 0, 1, 3 is neither inside a leaf nor big
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(dict(WORKED, fan=[[0, 1, 3]])))
    message = "cone is neither inside a leaf nor big"
    for command in VERDICT_COMMANDS:
        code, report = run(capsys, *command, str(path))
        assert code == 1, (command, report)
        if command[0] == "validate":
            assert report["violations"] == [f"fan: {message}"]
        else:
            assert report["error"] == message
            assert report["cone"]["rays"] == [[-2, -2, -1], [-1, -1, -2], [0, 3, 2]]


def test_out_flag_writes_file_and_keeps_stdout_empty(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(WORKED))
    out = tmp_path / "report.json"
    code = cli.main(["gorenstein", str(src), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["gorenstein_index"] == 12


def test_input_round_trip(worked):
    data, fan = cli.parse_input(json.dumps(WORKED))
    assert data == worked
    assert data.A[0][0] == Fraction(-1)
    assert fan == ((0, 2, 3), (1, 2, 3), (0, 1))
    # a document without a fan parses to the same data and no fan
    bare = cli.parse_input(json.dumps({k: v for k, v in WORKED.items() if k != "fan"}))
    assert bare == (worked, None)


def test_bad_flag_exits_one(worked_file):
    with pytest.raises(SystemExit) as info:
        cli.main(["gorenstein", worked_file, "--method", "bogus"])
    assert info.value.code == 1


def test_one_process_matches_fresh_parsers(capsys, worked_file):
    # main reuses one parser per process; a failed parse must leave
    # nothing behind that changes the next command.
    argvs = [
        ["gorenstein", worked_file, "--method", "bogus"],
        ["gorenstein", worked_file, "--method", "cones"],
        ["oracle", "box-search", "--setting", "5", "--index", "1", "--bound", "30"],
        ["info", worked_file],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [call(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# fuzzed documents
#
# Seeded mutations of the README documents, the documents above and
# random documents of bench/gen.py's shape classes: one entry replaced by
# a value of a wrong type or size, a field or entry dropped, a row made
# ragged, or the JSON text cut short.  Every case must end in exactly one
# JSON report and a documented exit code.

FUZZ_BASES = (
    WORKED,
    {k: v for k, v in WORKED.items() if k != "fan"},
    dict(WORKED, l=[[2, 2], [2], [3]], D=[[1, 1, 1, 2]], fan=None),
    NOT_FANO,
)
FUZZ_COMMANDS = (
    ("trop",), ("gorenstein", "--method", "complex"),
    ("gorenstein", "--method", "cones"), ("gorenstein", "--toric"),
)
# the shape classes (r, c, s, n, m) of bench/gen.py
GEN_SHAPES = (
    (1, 1, 1, (2, 1), 0), (1, 1, 1, (2, 2), 0), (1, 1, 2, (2, 2), 0),
    (1, 1, 2, (2, 2), 1), (2, 2, 1, (1, 1, 1), 1), (2, 1, 1, (1, 1, 1), 1),
    (2, 2, 1, (1, 2, 2), 0), (2, 1, 1, (2, 2, 1), 0), (2, 2, 2, (2, 2, 2), 0),
    (3, 3, 1, (1, 1, 2, 2), 0), (3, 2, 1, (1, 1, 1, 2), 0),
)
FUZZ_VALUES = (
    1.5, -0.0, True, False, None, "x", "7", "1/0",
    10**30, -10**30, 0, -1, 2, [], {}, [1],
)


def _positions(obj, prefix=()):
    """Paths to every entry below the top level of a JSON value."""
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _positions(child, prefix + (key,))


def _entry(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(rng: random.Random, doc: dict) -> str:
    doc = copy.deepcopy(doc)
    kind = rng.choice(("value", "drop", "ragged", "truncate"))
    positions = list(_positions(doc))
    if kind in ("value", "drop"):
        *path, last = rng.choice(positions)
        holder = _entry(doc, path)
        if kind == "value":
            holder[last] = rng.choice(FUZZ_VALUES)
        else:
            del holder[last]
    elif kind == "ragged":
        rows = [p for p in positions if isinstance(_entry(doc, p), list)]
        row = _entry(doc, rng.choice(rows))
        if row and rng.random() < 0.5:
            row.pop(rng.randrange(len(row)))
        else:
            row.insert(rng.randrange(len(row) + 1), rng.choice((-1, 0, 1, 2)))
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[: rng.randrange(len(text))]
    return text


def _nudged(rng: random.Random, doc: dict) -> str:
    """The document with one entry of D set to a small integer."""
    doc = copy.deepcopy(doc)
    row = rng.choice(doc["D"])
    row[rng.randrange(len(row))] = rng.choice((-2, -1, 0, 1, 2))
    return json.dumps(doc)


def test_fuzzed_documents_end_in_one_report(capsys, tmp_path, random_document):
    rng = random.Random(20261020)
    path = tmp_path / "fuzzed.json"

    def report_code(argv, text):
        path.write_text(text)
        code = cli.main([argv[0], str(path), *argv[1:]])
        report = json.loads(capsys.readouterr().out)
        assert isinstance(report, dict), (argv, text)
        assert code in (0, 1, 2, 3), (argv, text)
        return code, report

    codes = set()
    for _ in range(300):
        text = _mutated(rng, rng.choice(FUZZ_BASES))
        command = rng.choice(("validate", "info", "fan", "acomplex", "gorenstein"))
        codes.add(report_code((command,), text)[0])
    # the mutations reach past parsing into the computations
    assert {0, 1, 2} <= codes
    # single index routes, the leaf structure, and the toric oracle on
    # mutations of the README toric document
    reached = {command: set() for command in FUZZ_COMMANDS}
    for _ in range(400):
        command = rng.choice(FUZZ_COMMANDS)
        base = TORIC if "--toric" in command else rng.choice(FUZZ_BASES)
        reached[command].add(report_code(command, _mutated(rng, base))[0])
    assert all({0, 1} <= got for got in reached.values()), reached
    # random documents: about a third of those with one entry of D
    # changed pass validate, and most of these have columns that do not
    # generate the ambient space as a cone
    outcomes = set()
    for _ in range(200):
        doc = random_document(rng, *rng.choice(GEN_SHAPES))
        mutate = rng.choice((_mutated, _nudged))
        command = rng.choice(("info", "fan", "gorenstein"))
        code, report = report_code((command,), mutate(rng, doc))
        outcomes.add((code, report.get("error") == NOT_GENERATING))
    assert {(0, False), (1, False), (2, True)} <= outcomes, outcomes
