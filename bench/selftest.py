"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Feeds each check a right answer, which must pass, and wrong answers
(a wrong index, broken twins, tuples outside the paper's bounds, a box
scan that lost a tuple), which must fail.  It then runs one round of a
small box-oracle workload against a program whose box scan drops a
tuple and shows that the workload's own check reports it.  Exits 0 when
every case behaves as expected.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workload  # noqa: E402
from gavindex import acomplex, classify, cli, gav_core  # noqa: E402

# The worked example of the package README: index 12 on this fan.
WORKED = {
    "r": 2, "c": 1, "n": [2, 1, 1], "m": 0,
    "l": [[2, 1], [2], [3]],
    "A": [["-1", "1", "0"], ["-1", "0", "1"]],
    "D": [[-1, -2, 1, 2]],
}
WORKED_FAN = [[0, 2, 3], [1, 2, 3], [0, 1]]
WORKED_INDEX = 12
# -D + (P0 row 1 - P0 row 2)
TWIN_U, TWIN_B = [[-1]], [[1, -1]]
TWIN = dict(WORKED, D=[[1, 2, 1, -5]])

results: list[tuple[str, bool]] = []


def expect(name: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    results.append((name, ok))
    verdict = "ok  " if ok else "BAD "
    detail = errors[0] if errors else "no error"
    print(f"{verdict}{'fails' if should_fail else 'passes'}: {name} ({detail})")


def _program_index(doc: dict, fan) -> int:
    data = gav_core.make_data(**{k: doc[k] for k in ("r", "c", "n", "m", "l", "A", "D")})
    return acomplex.gorenstein_index_via_cones(data, gav_core.fan_from_index_sets(data, fan))


def support_cases() -> None:

    expect("worked example, index 12",
           checks.support_form_errors(WORKED, WORKED_FAN, WORKED_INDEX), False)
    expect("worked example, index 6 (not a multiple of 4)",
           checks.support_form_errors(WORKED, WORKED_FAN, 6), True)
    ver = classify.verify(1, (2, 3, -3), 1)
    doc, cones = workload._doc_of(ver.candidate.data), ver.candidate.fan.index_sets
    expect("setting 1 (2, 3, -3), every cone spans, index 1",
           checks.support_form_errors(doc, cones, 1), False)
    expect("setting 1 (2, 3, -3) reported with index 2",
           checks.support_form_errors(doc, cones, 2), True)


def twin_cases() -> None:
    twin_index = _program_index(TWIN, WORKED_FAN)
    expect("twin of the worked example, program index",
           checks.twin_errors(WORKED, TWIN, TWIN_U, TWIN_B, WORKED_INDEX, twin_index), False)
    expect("twin reporting another index",
           checks.twin_errors(WORKED, TWIN, TWIN_U, TWIN_B, WORKED_INDEX, 6), True)
    expect("twin made with a non-unimodular U",
           checks.twin_errors(WORKED, dict(WORKED, D=[[-2, -4, 4, 1]]), [[2]], TWIN_B,
                              WORKED_INDEX, WORKED_INDEX), True)
    expect("twin whose D is not U.D + B.P0",
           checks.twin_errors(WORKED, dict(WORKED, D=[[1, 2, 1, -4]]), TWIN_U, TWIN_B,
                              WORKED_INDEX, WORKED_INDEX), True)


def bound_cases() -> None:
    expect("setting 1 (2, 3, -3) at index 1", checks.paper_bound_errors(1, (2, 3, -3), 1), False)
    expect("setting 1 d12 = 4 at index 1", checks.paper_bound_errors(1, (2, 4, -3), 1), True)
    expect("setting 5 (3, -2) at index 1", checks.paper_bound_errors(5, (3, -2), 1), False)
    expect("setting 5 (2, -2) at index 1", checks.paper_bound_errors(5, (2, -2), 1), True)


def box_cases() -> None:
    reference = [(2, 3, -3), (7, 3, -8)]
    expect("box bound 5 holds one reference tuple",
           checks.box_errors(1, 1, 5, [(2, 3, -3)], reference), False)
    expect("box bound 10 missing a reference tuple",
           checks.box_errors(1, 1, 10, [(2, 3, -3)], reference), True)
    expect("box holding a tuple outside the reference",
           checks.box_errors(1, 1, 5, [(2, 3, -3), (3, 3, -4)], reference), True)


def workload_case() -> None:
    """A box scan that drops its last tuple makes the workload check fail."""
    inputs = os.path.join(HERE, ".out", "selftest")
    os.makedirs(inputs, exist_ok=True)
    scans = [{"setting": 5, "index": 1, "bound": 100},
             {"setting": 1, "index": 1, "bound": 80},
             {"setting": 2, "index": 1, "bound": 10}]
    with open(os.path.join(inputs, "box-oracle.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": 0, "scans": scans}, handle)
    box = workload.BoxOracle(0, inputs)
    caches = workload.package_caches()
    good = workload.run_round(box, caches).results
    expect("box-oracle round of the program", box.check(good), False)

    honest = cli.brute_force_box
    cli.brute_force_box = lambda *args: honest(*args)[:-1]
    try:
        bad = workload.run_round(box, caches).results
    finally:
        cli.brute_force_box = honest
    expect("box-oracle round with a scan that drops a tuple", box.check(bad), True)


def main() -> int:
    support_cases()
    twin_cases()
    bound_cases()
    box_cases()
    workload_case()
    bad = [name for name, ok in results if not ok]
    print(f"{len(results) - len(bad)} of {len(results)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
