"""Per-layer spans around the public functions of multicurve, from outside.

`Tracer.install()` wraps every public function of each layer module (plus
`Subspace.insert`, `Subspace.reduce` and `RingElem.__mul__`) and rebinds the
wrapper in every `multicurve.*` namespace that holds the original, because
`ext`, `normal_form`, `moduli` and `cli` import names directly.  A span is
(name, parent span, query, start, end, flag); spans live in compact arrays
in memory and are only aggregated when the run ends.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("ring", "linalg", "modules", "normal_form", "ext", "moduli", "stability", "invariants", "cli")
METHODS = (("linalg", "Subspace", "insert", "linalg.insert"),
           ("linalg", "Subspace", "reduce", "linalg.reduce"),
           ("ring", "RingElem", "__mul__", "ring.mul"))
ONLY = {"cli": ("main",)}  # cmd_* run inside main; its self time is argparse + JSON

# span flags
RETURNED, RAISED, EXPECTED_MISS, HIT = 0, 1, 2, 3
# a return value that counts as a useful outcome
HITS = {
    "linalg.insert": lambda grew: bool(grew),
    "modules.is_isomorphic_oracle": lambda verdict: verdict in ("yes", "no"),
}

# (metric, unit); the per_layer list of BENCHMARK.json, in order.
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.inputs_s", "s"), ("setup.warmup_s", "s"),
    ("linalg.insert.calls", "count"), ("linalg.insert.self_s", "s"), ("linalg.insert.grew_ratio", "ratio"),
    ("linalg.reduce.calls", "count"), ("linalg.reduce.self_s", "s"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s"), ("linalg.rank.self_s", "s"),
    ("modules.span_from_generators.calls", "count"), ("modules.span_from_generators.self_s", "s"),
    ("modules.lift_module.calls", "count"), ("modules.lift_module.self_s", "s"),
    ("modules.indices.self_s", "s"), ("modules.indices_by_definition.self_s", "s"),
    ("modules.graded_report.self_s", "s"), ("modules.dual_module_oracle.self_s", "s"),
    ("modules.is_isomorphic_oracle.calls", "count"), ("modules.is_isomorphic_oracle.self_s", "s"),
    ("modules.is_isomorphic_oracle.decided_ratio", "ratio"),
    ("normal_form.special_ideal.self_s", "s"), ("normal_form.normalize_special.self_s", "s"),
    ("normal_form.enumerate_invertible_modules.self_s", "s"),
    ("normal_form.enumerate_invertible_modules.oracle_calls", "count"),
    ("ring.mul.calls", "count"), ("ring.mul.self_s", "s"),
    ("ext.local_ext1_length.self_s", "s"), ("ext.build_resolution.self_s", "s"),
    ("moduli.connectivity.self_s", "s"), ("moduli.apply_move.calls", "count"),
    ("moduli.apply_move.applicable_ratio", "ratio"), ("moduli.enumerate_components.self_s", "s"),
    ("moduli.tangent_dimension.self_s", "s"),
    ("stability.check_stability.calls", "count"), ("stability.self_s", "s"), ("invariants.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    *((f"{layer}.raised", "count") for layer in LAYERS),
    ("trace.spans", "count"), ("trace.overhead_frac", "ratio"),
)


def _public_functions(mod):
    only = ONLY.get(mod.__name__.rsplit(".", 1)[-1])
    for attr, val in vars(mod).items():
        if attr.startswith("_") or (only is not None and attr not in only):
            continue
        if (inspect.isfunction(val) and val.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(val)):
            yield attr, val


class Tracer:
    """Records spans; one per process, for one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_flag = array("b")
        self.stack: list[int] = []
        self.query = -1
        self.query_strata: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def start_query(self, stratum: str) -> None:
        self.query = len(self.query_strata)
        self.query_strata.append(stratum)

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, miss_under: str | None = None, miss_exc=None):
        nid = self._id(name)
        miss_parent = self._id(miss_under) if miss_under else -2
        hit = HITS.get(name)
        clock = time.perf_counter
        stack, names, parents, queries = self.stack, self.span_name, self.span_parent, self.span_query
        starts, ends, flags = self.span_start, self.span_end, self.span_flag
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            queries.append(tracer.query)
            ends.append(0.0)
            flags.append(RETURNED)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                expected = (miss_exc is not None and isinstance(exc, miss_exc)
                            and parent >= 0 and names[parent] == miss_parent)
                flags[idx] = EXPECTED_MISS if expected else RAISED
                raise
            ends[idx] = clock()
            stack.pop()
            if hit is not None and hit(out):
                flags[idx] = HIT
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer and rebind the wrappers across multicurve.*."""
        from multicurve.errors import MoveNotApplicable

        mods = {layer: importlib.import_module(f"multicurve.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, fn in _public_functions(mod):
                name = f"{layer}.{attr}"
                if name == "moduli.apply_move":
                    wrapped = self.wrap(name, fn, "moduli.connectivity", MoveNotApplicable)
                else:
                    wrapped = self.wrap(name, fn)
                replace[id(fn)] = (fn, wrapped)
        namespaces = [m for k, m in sys.modules.items() if k == "multicurve" or k.startswith("multicurve.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((ns, attr, val))
                    setattr(ns, attr, hit[1])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- aggregation -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name, "parent": parent, "dur": dur, "self": dur - child,
            "query": np.frombuffer(self.span_query, dtype=np.int32),
            "flag": np.frombuffer(self.span_flag, dtype=np.int8),
        }

    def _per_name(self, sp, weights=None) -> np.ndarray:
        return np.bincount(sp["name"], weights=weights, minlength=len(self.names))

    def metrics(self, setup: dict) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_frac, which needs an untraced run."""
        sp = self.spans()
        calls = self._per_name(sp)
        self_s = self._per_name(sp, sp["self"])
        raised = self._per_name(sp, sp["flag"] == RAISED)
        hits = self._per_name(sp, sp["flag"] == HIT)
        misses = self._per_name(sp, sp["flag"] == EXPECTED_MISS)

        def get(arr, name):
            i = self.name_ids.get(name)
            return float(arr[i]) if i is not None else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"setup.{key}": setup[key] for key in ("import_s", "inputs_s", "warmup_s")}
        for metric, _unit in PER_LAYER:
            if metric in out:
                continue
            head, _, tail = metric.rpartition(".")
            if tail == "calls":
                out[metric] = get(calls, head)
            elif tail == "self_s":
                if head in LAYERS:
                    out[metric] = sum(float(self_s[i]) for n, i in self.name_ids.items()
                                      if n.split(".", 1)[0] == head)
                else:
                    out[metric] = get(self_s, head)
            elif tail == "raised":
                out[metric] = sum(float(raised[i]) for n, i in self.name_ids.items()
                                  if n.split(".", 1)[0] == head)
        out["linalg.insert.grew_ratio"] = ratio(get(hits, "linalg.insert"), get(calls, "linalg.insert"))
        out["modules.is_isomorphic_oracle.decided_ratio"] = ratio(
            get(hits, "modules.is_isomorphic_oracle"), get(calls, "modules.is_isomorphic_oracle"))
        moves = get(calls, "moduli.apply_move")
        out["moduli.apply_move.applicable_ratio"] = ratio(
            moves - get(misses, "moduli.apply_move") - get(raised, "moduli.apply_move"), moves)
        out["normal_form.enumerate_invertible_modules.oracle_calls"] = float(self._oracle_calls_in_enumeration(sp))
        out["trace.spans"] = float(len(sp["name"]))
        return {m: out[m] for m, _ in PER_LAYER if m in out}

    def _oracle_calls_in_enumeration(self, sp) -> int:
        oracle = self.name_ids.get("modules.is_isomorphic_oracle")
        enum = self.name_ids.get("normal_form.enumerate_invertible_modules")
        if oracle is None or enum is None:
            return 0
        parent, name = sp["parent"], sp["name"]
        count = 0
        for idx in np.flatnonzero(name == oracle):
            up = parent[idx]
            while up >= 0 and name[up] != enum:
                up = parent[up]
            count += up >= 0
        return count

    def report(self) -> str:
        """Readable table: calls and self time per span name, and self time per stratum."""
        sp = self.spans()
        calls = self._per_name(sp)
        self_s = self._per_name(sp, sp["self"])
        lines = [f"{'span':<48} {'calls':>9} {'self_s':>10}"]
        for i in np.argsort(-self_s):
            if calls[i]:
                lines.append(f"{self.names[i]:<48} {calls[i]:>9d} {self_s[i]:>10.4f}")
        strata = sorted(set(self.query_strata))
        if len(strata) > 1:
            lines.append("")
            lines.append("self time per stratum (ms per query of that stratum)")
            qstrata = np.array([strata.index(s) for s in self.query_strata], dtype=np.int64)
            nq = np.bincount(qstrata, minlength=len(strata))
            in_query = sp["query"] >= 0
            span_stratum = qstrata[sp["query"][in_query]]
            layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)
            cell = np.zeros((len(LAYERS), len(strata)))
            np.add.at(cell, (layer_of[sp["name"][in_query]], span_stratum), sp["self"][in_query])
            lines.append(f"{'layer':<14}" + "".join(f"{s:>10}" for s in strata))
            for li, layer in enumerate(LAYERS):
                if cell[li].any():
                    lines.append(f"{layer:<14}" + "".join(
                        f"{1000 * cell[li, si] / max(nq[si], 1):>10.2f}" for si in range(len(strata))))
            lines.append(f"{'queries':<14}" + "".join(f"{nq[si]:>10d}" for si in range(len(strata))))
        return "\n".join(lines)
