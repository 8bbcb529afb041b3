"""Span tracer for calls into the public functions of each layer.

The tracer replaces a function in every ``gavindex`` module that binds
it, so names imported with ``from ... import`` are counted as well as
calls through the defining module.  Spans stay in memory as parallel
lists (name, start, end, parent span, operation id) and are written out
once, at the end of the run.  Self time is a span's duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# Layer -> public functions whose calls are timed.
TARGETS = {
    "classify": ("enumerate_setting", "instantiate", "verify_data", "brute_force_box"),
    "gav_core": ("is_fano", "degree_map", "moving_cone", "fan_from_index_sets"),
    "tropical": ("classify_cone", "prune_to_minimal"),
    "acomplex": ("build_complex", "distance_report", "gorenstein_index_via_cones"),
    "polyhedra": ("intersect", "cone_from_generators", "make_fan", "truncate"),
    "exactla": ("hnf", "snf", "solve_rational"),
    "cli": ("main",),
}

KEYS = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

OK, RAISED, ACCEPTED, REJECTED = 0, 1, 2, 3


def package_modules(package: str = "gavindex") -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    """Records one span per call of each target function while installed."""

    def __init__(self, package: str = "gavindex"):
        self.package = package
        self.op = -1
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.outcomes: list[int] = []
        self.calls = [0] * len(KEYS)
        self.self_s = [0.0] * len(KEYS)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key_id: int, fn, outcome_attr: str | None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, outcomes = self.parents, self.ops, self.outcomes
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(key_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            outcomes.append(OK)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                outcomes[idx] = RAISED
                raise
            else:
                if outcome_attr is not None:
                    outcomes[idx] = ACCEPTED if getattr(result, outcome_attr) else REJECTED
                return result
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_s[key_id] += dur - child.pop()
                calls[key_id] += 1
                if child:
                    child[-1] += dur

        return traced

    def install(self) -> None:
        modules = package_modules(self.package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for key_id, key in enumerate(KEYS):
            layer, fn_name = key.split(".")
            original = getattr(by_name[layer], fn_name)
            wrapper = self._wrap(
                key_id, original, "accepted" if key == "classify.verify_data" else None
            )
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def count(self, key: str, outcome: int) -> int:
        key_id = KEYS.index(key)
        return sum(
            1 for n, o in zip(self.names, self.outcomes) if n == key_id and o == outcome
        )

    def write(self, path: str) -> None:
        """All spans as gzipped JSON: a name table and one row per span."""
        rows = [
            [n, round(s, 9), round(e, 9), p, o, c]
            for n, s, e, p, o, c in zip(
                self.names, self.starts, self.ends, self.parents, self.ops, self.outcomes
            )
        ]
        doc = {
            "names": list(KEYS),
            "columns": ["name", "start", "end", "parent", "op", "outcome"],
            "outcomes": ["ok", "raised", "accepted", "rejected"],
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
