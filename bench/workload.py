"""One workload in one fresh process: set-up, timed rounds, checks, result.

Started by ``bench/run.py``, which fixes ``PYTHONHASHSEED``, points
``PYTHONPATH`` at the checkout's ``src`` and passes the monotonic time
at which it launched this process, so that set-up time counts the
interpreter start, the imports and the loading of the inputs.

A round is the workload's whole operation list, run in order with
every ``lru_cache`` of the package emptied first, so each round costs
what a fresh ``gavindex`` process pays after its imports.  Rounds
repeat until the operations have taken ``--seconds``; latencies are
also reported scaled to a reference machine speed (see ``speed.py``).
With ``--trace 1`` the run makes one untraced round and then one traced
round instead.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass

_T0_NS = int(os.environ.get("GAVBENCH_T0_NS", time.clock_gettime_ns(time.CLOCK_MONOTONIC)))

import gavindex  # noqa: E402
from gavindex import classify, cli  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

FAILED = object()

# Sweep: the paper's application, index 1 and then index 2.
SWEEP_INDICES = (1, 2)
SWEEP_SETTINGS = (1, 2, 3, 4, 5)
# Box scans of settings 1 and 5 are compared with the verified
# enumeration; the sweep's accepted sets with a box of this bound.
CHECK_BOX_BOUND = 60


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _doc_of(data) -> dict:
    return {"r": data.r, "c": data.c, "n": list(data.n), "m": data.m,
            "l": [list(x) for x in data.l], "D": [list(x) for x in data.D]}


def _cli(argv: list[str]):
    """cli.main with its report captured; returns (exit code, report text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class ClassifySweep:
    """Enumerate and verify every candidate tuple of the five settings."""

    def __init__(self, seed: int, inputs: str):
        self.seed = seed

    def ops(self):
        # The enumeration belongs to the round but is not an operation;
        # the seed fixes the order of verification within each index.
        rng = random.Random(self.seed)
        for index in SWEEP_INDICES:
            tasks = [
                (sid, v)
                for sid in SWEEP_SETTINGS
                for v in classify.enumerate_setting(sid, index)
            ]
            rng.shuffle(tasks)
            for sid, v in tasks:
                yield (lambda sid=sid, v=v, index=index: (index, classify.verify(sid, v, index)))

    @staticmethod
    def digest(result):
        index, ver = result
        return (index, ver.setting, ver.params, ver.accepted, ver.reason)

    def check(self, results) -> list[str]:
        errors = []
        accepted: dict[tuple[int, int], set] = {}
        for res in results:
            if res is FAILED:
                continue
            index, ver = res
            if ver.accepted:
                cand = ver.candidate
                accepted.setdefault((cand.setting, index), set()).add(cand.params)
                errors += checks.support_form_errors(
                    _doc_of(cand.data), cand.fan.index_sets, index
                )
                errors += checks.paper_bound_errors(cand.setting, cand.params, index)
        for sid in (1, 5):
            for index in SWEEP_INDICES:
                box = classify.brute_force_box(sid, index, CHECK_BOX_BOUND)
                errors += checks.box_errors(
                    sid, index, CHECK_BOX_BOUND, accepted.get((sid, index), set()), box
                )
        return errors


class RandomFano:
    """gorenstein requests through the command-line entry point."""

    def __init__(self, seed: int, inputs: str):
        with open(os.path.join(inputs, "random-fano.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest["seed"] != seed:
            raise ValueError("input manifest was made from another seed")
        self.entries = manifest["documents"]
        self.paths = [os.path.join(inputs, e["file"]) for e in self.entries]

    def ops(self):
        for path in self.paths:
            yield (lambda path=path: _cli(["gorenstein", path]))

    @staticmethod
    def digest(result):
        code, text = result
        if code != 0:
            return FAILED
        return json.loads(text)["gorenstein_index"]

    def check(self, results) -> list[str]:
        errors = []
        results = [FAILED if r is FAILED else self.digest(r) for r in results]
        for k, (entry, index) in enumerate(zip(self.entries, results)):
            if index is FAILED:
                continue
            for e in checks.support_form_errors(entry["doc"], entry["cones"], index):
                errors.append(f"document {k}: {e}")
            base = entry["twin_of"]
            if base is not None and results[base] is not FAILED:
                for e in checks.twin_errors(
                    self.entries[base]["doc"], entry["doc"], entry["U"], entry["B"],
                    results[base], index,
                ):
                    errors.append(f"twin {k} of {base}: {e}")
        return errors


class BoxOracle:
    """gavindex oracle box-search scans through the command-line entry point."""

    def __init__(self, seed: int, inputs: str):
        with open(os.path.join(inputs, "box-oracle.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest["seed"] != seed:
            raise ValueError("input manifest was made from another seed")
        self.scans = manifest["scans"]

    def ops(self):
        for scan in self.scans:
            argv = ["oracle", "box-search", "--setting", str(scan["setting"]),
                    "--index", str(scan["index"]), "--bound", str(scan["bound"])]
            yield (lambda argv=argv: _cli(argv))

    @staticmethod
    def digest(result):
        code, text = result
        if code != 0:
            return FAILED
        return tuple(tuple(v) for v in json.loads(text)["accepted"])

    def check(self, results) -> list[str]:
        errors = []
        reference: dict[tuple[int, int], list] = {}
        survivors = set()
        results = [FAILED if r is FAILED else self.digest(r) for r in results]
        for scan, accepted in zip(self.scans, results):
            if accepted is FAILED:
                continue
            sid, index = scan["setting"], scan["index"]
            survivors.update((sid, index, v) for v in accepted)
            if sid not in (1, 5):
                continue
            if (sid, index) not in reference:
                reference[(sid, index)] = [
                    v for v in classify.enumerate_setting(sid, index)
                    if classify.verify(sid, v, index).accepted
                ]
            errors += checks.box_errors(sid, index, scan["bound"], accepted, reference[(sid, index)])
        for sid, index, v in sorted(survivors):
            data, fan = classify.instantiate(sid, v)
            errors += checks.support_form_errors(_doc_of(data), fan.index_sets, index)
            errors += checks.paper_bound_errors(sid, v, index)
        return errors


WORKLOADS = {"classify-sweep": ClassifySweep, "random-fano": RandomFano, "box-oracle": BoxOracle}


def package_caches() -> list:
    """Every lru_cache wrapper bound in a module of the package."""
    seen = {}
    for mod in tracing.package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


@dataclass
class Round:
    latencies: list[float]
    results: list
    # each latency scaled to the reference machine speed
    scaled: list[float]


def run_round(workload, caches, tracer=None) -> Round:
    """One pass over the workload's operations with every cache emptied first.

    A speed slice is timed before the first operation and after each
    one; an operation's latency is scaled by the mean of the slices on
    either side of it.
    """
    for cache in caches:
        cache.cache_clear()
    latencies, results, scaled = [], [], []
    before = speed.slice_seconds()
    for k, op in enumerate(workload.ops()):
        if tracer is not None:
            tracer.op = k
        t = time.perf_counter()
        try:
            out = op()
        except Exception:  # an operation that raises counts as failed
            out = FAILED
        latency = time.perf_counter() - t
        if tracer is not None:
            tracer.op = -1
        latencies.append(latency)
        results.append(out)
        after = speed.slice_seconds()
        scaled.append(latency * 2 * speed.REFERENCE_S / (before + after))
        before = after
    return Round(latencies, results, scaled)


def _hit_ratio(caches) -> float:
    hits = sum(c.cache_info().hits for c in caches)
    total = hits + sum(c.cache_info().misses for c in caches)
    return hits / total if total else 0.0


def _layer_metrics(tracer, caches_by_name, overhead_s) -> dict:
    metrics = {}
    for key_id, key in enumerate(tracing.KEYS):
        metrics[f"{key}.calls"] = {"value": tracer.calls[key_id], "unit": "count"}
        metrics[f"{key}.self_s"] = {"value": tracer.self_s[key_id], "unit": "s"}
    attempted = tracer.calls[tracing.KEYS.index("classify.instantiate")]
    accepted = tracer.count("classify.verify_data", tracing.ACCEPTED)
    metrics["classify.accepted_ratio"] = {
        "value": accepted / attempted if attempted else 0.0, "unit": "ratio"}
    metrics["classify.instantiate.rejected"] = {
        "value": tracer.count("classify.instantiate", tracing.RAISED), "unit": "count"}
    for name, caches in caches_by_name.items():
        metrics[name] = {"value": _hit_ratio(caches), "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--spans", help="write the traced round's spans here")
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(HERE, os.pardir, "src"))
    if not os.path.realpath(gavindex.__file__).startswith(src + os.sep):
        print(f"gavindex imported from {gavindex.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.inputs)
    caches = package_caches()
    # Read before tracing replaces the module bindings.
    caches_by_name = {
        "polyhedra.cone_cache.hit_ratio": [
            c for c in caches if getattr(c, "__module__", "") == "gavindex.polyhedra"],
        "tropical.classify_cone.hit_ratio": [
            c for c in [gavindex.tropical.classify_cone] if hasattr(c, "cache_info")],
        "gav_core.degree_map.hit_ratio": [
            c for c in [gavindex.gav_core.degree_map] if hasattr(c, "cache_info")],
    }

    setup_raw_s = (_now_ns() - _T0_NS) / 1e9
    # the speed during set-up, read right after it
    setup_s = setup_raw_s * speed.REFERENCE_S / statistics.median(
        speed.slice_seconds() for _ in range(5))
    rounds: list[Round] = []
    timed = 0.0
    while True:
        rounds.append(run_round(workload, caches))
        timed += sum(rounds[-1].latencies)
        if args.trace or timed >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_round(workload, caches, tracer)
        finally:
            tracer.uninstall()
        # both rounds at the reference speed, so that drift between them cancels
        overhead_s = sum(traced.scaled) - sum(rounds[-1].scaled)
        metrics = _layer_metrics(tracer, caches_by_name, overhead_s)
        if args.spans:
            tracer.write(args.spans)
        rounds.append(traced)
    else:
        scaled = [x for r in rounds for x in r.scaled]
        raw = [x for r in rounds for x in r.latencies]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_ms_p50": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
            "op_ms_p90": {"value": 1000 * statistics.quantiles(scaled, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(
            f"{args.workload}: {len(rounds)} rounds, {len(raw)} ops; unscaled: "
            f"setup {setup_raw_s:.3f} s, {len(raw) / sum(raw):.3f} ops/s, "
            f"p50 {1000 * statistics.median(raw):.3f} ms, "
            f"p90 {1000 * statistics.quantiles(raw, n=10)[8]:.3f} ms"
        )

    digests = [
        [FAILED if r is FAILED else workload.digest(r) for r in rnd.results]
        for rnd in rounds
    ]
    attempted = sum(len(d) for d in digests)
    failed = sum(1 for d in digests for x in d if x is FAILED)
    errors = []
    if any(d != digests[0] for d in digests[1:]):
        errors.append("rounds disagree on their results")
    errors += workload.check(
        [FAILED if d is FAILED else r for d, r in zip(digests[0], rounds[0].results)]
    )
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
