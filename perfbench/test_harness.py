"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They check that inputs follow from the seed, that warm-up and timed inputs
never overlap, that every round holds the same strata, that every answer
check rejects a corrupted answer (so the correctness gate is live), that the
closed forms match hand-computed cases, and that the tracer sees every layer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
from collections import Counter
from fractions import Fraction

import pytest

import expect
import worker
from workloads import (
    TIMED,
    WARMUP,
    WORKLOADS,
    IsoClassify,
    ModuliSweep,
    Session,
    StalkCertify,
)

worker.import_library()

import multicurve.modules as md  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402

ROUNDS = range(12)


def _strata(work, r):
    return Counter(getattr(spec, "stratum", None) or _iso_stratum(work, spec) for spec in work.items(r))


def _iso_stratum(work, item):
    return "enum" if item.kind == "enumerate" else work.sources[item.source].stratum


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("cls", WORKLOADS.values())
def test_same_seed_same_inputs(cls):
    a, b, other = cls(7), cls(7), cls(8)
    assert [a.items(r) for r in ROUNDS] == [b.items(r) for r in ROUNDS]
    assert [a.items(r) for r in ROUNDS] != [other.items(r) for r in ROUNDS]
    if cls is IsoClassify:
        assert a.sources == b.sources


@pytest.mark.parametrize("cls", WORKLOADS.values())
def test_warmup_never_overlaps_timed(cls):
    for seed in range(5):
        work, warm = cls(seed, TIMED), cls(seed, WARMUP)
        if cls is IsoClassify:
            assert not set(work.sources) & set(warm.sources)
            assert not set(work.enum_configs) & set(warm.enum_configs)
            continue
        timed = {spec for r in range(40) for spec in work.items(r)}
        assert not timed & set(warm.items(0))


def test_warmup_parameters_are_outside_the_timed_ranges():
    timed = {spec.p for r in range(40) for spec in StalkCertify(3).items(r)}
    assert timed == {2, 3} and {s.p for s in StalkCertify(3, WARMUP).items(0)} == {5}
    assert {c.g1 for r in range(40) for c in ModuliSweep(3).items(r)} == {2, 3}
    assert {c.g1 for c in ModuliSweep(3, WARMUP).items(0)} == {5}


@pytest.mark.parametrize("cls", WORKLOADS.values())
def test_every_round_has_the_same_strata(cls):
    work = cls(5)
    first = _strata(work, 0)
    assert set(first) == set(cls.strata)
    for r in ROUNDS:
        assert _strata(work, r) == first


def test_rotations_cover_jumps_and_degrees_evenly():
    n6 = [s for r in range(5) for s in StalkCertify(9).items(r) if s.stratum == "n6"]
    assert sorted(s.j for s in n6) == [1, 2, 3, 4, 5]
    n5 = [c for r in range(4) for c in ModuliSweep(9).items(r) if c.stratum == "n5"]
    assert sorted(c.degree for c in n5) == [1, 2, 3, 4]


def test_cost_mix_does_not_depend_on_the_seed():
    def mix(work):
        return sorted((s.stratum, s.n, s.p, s.beta[-1]) for s in work.items(0))

    assert mix(StalkCertify(1)) == mix(StalkCertify(2))
    labels = {(c.stratum, len(ModuliSweep(1).facts(c.n, c.delta, c.degree).labels))
              for r in range(12) for c in ModuliSweep(r).items(r)}
    assert len(labels) == len(ModuliSweep.strata)


# -- the correctness gate ------------------------------------------------------


def _bump(value):
    """The same answer with its first integer changed."""
    if isinstance(value, bool) or not isinstance(value, (int, tuple)):
        raise TypeError(value)
    if isinstance(value, int):
        return value + 1
    return (_bump(value[0]),) + value[1:]


def _cli_corruptions(kind, out):
    code, text = out
    yield (1, text)
    data = json.loads(text)
    edits = {
        "components": [("genus", lambda d: d["genus"] + 1),
                       ("connected_components", lambda d: d["connected_components"] + 1000),
                       ("components", lambda d: d["components"][:-1])],
        "tangent": [("tangent_dim", lambda d: d["tangent_dim"] + 1)],
        "stability": [("stable", lambda d: not d["stable"]),
                      ("equality_positions", lambda d: d["equality_positions"] + [9])],
        "jh": [("positions", lambda d: d["positions"][1:]),
               ("factors", lambda d: [dict(d["factors"][0], degree=100)] + d["factors"][1:])],
    }[kind]
    for key, edit in edits:
        bad = dict(data)
        bad[key] = edit(data)
        yield (code, json.dumps(bad))


def corruptions(kind, out):
    if kind == "build":
        yield md.zero_module(out.params)
    elif kind in ("iso_yes", "iso_no"):
        yield {"yes": "no", "no": "yes"}[out]
        yield "inconclusive"
    elif kind == "normalize":
        yield types.SimpleNamespace(n=out.n, b=out.b + 1, j=out.j, z=out.z)
        if out.z:
            yield types.SimpleNamespace(n=out.n, b=out.b, j=out.j, z=(_bump(out.z[0]),) + out.z[1:])
    elif kind == "enumerate":
        last = max(i for i, e in enumerate(out) if e.duplicate_of is None)
        yield out[:last] + [dataclasses.replace(out[last], duplicate_of=0)] + out[last + 1:]
        yield out[:last] + out[last + 1:]
    elif kind in ("components", "tangent", "stability", "jh"):
        yield from _cli_corruptions(kind, out)
    else:
        yield _bump(out)


@pytest.mark.parametrize("cls", WORKLOADS.values())
def test_every_check_accepts_the_answer_and_rejects_a_corruption(cls):
    work = cls(2)
    work.prepare(1)
    kinds = set()
    for q in work.queries(0):
        out = q.call()
        assert q.check(out) is None, (q.kind, q.stratum)
        bad = list(corruptions(q.kind, out))
        assert bad
        for wrong in bad:
            assert q.check(wrong) is not None, (q.kind, q.stratum, wrong)
        kinds.add(q.kind)
    assert kinds


def test_a_wrong_library_answer_fails_the_run(monkeypatch):
    work = StalkCertify(1, WARMUP)
    ok = Session()
    ok.run(work.queries(0))
    assert ok.attempted > 0 and ok.failed == 0
    monkeypatch.setattr(md, "indices", lambda M: (0,) * (M.params.n - 1))
    bad = Session()
    bad.run(work.queries(0))
    assert bad.attempted == ok.attempted
    assert bad.failed >= 2 * len(work.items(0))  # indices and dual indices of every stalk


def test_an_answer_of_the_wrong_shape_counts_as_a_failed_query(monkeypatch):
    import multicurve.normal_form as nf

    monkeypatch.setattr(nf, "special_ideal", lambda form, par: None)
    monkeypatch.setattr(nf, "ideal_from_indices", lambda form, par: None)
    s = Session()
    s.run(StalkCertify(1, WARMUP).queries(0))
    assert s.failed == s.attempted > 0
    assert s.failures[0].startswith("build") and "unreadable answer" in s.failures[0]


def test_an_exception_counts_as_a_failed_query(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(md, "dual_module_oracle", broken)
    s = Session()
    s.run(StalkCertify(1, WARMUP).queries(0))
    assert s.failed == len(StalkCertify(1, WARMUP).items(0))
    assert "RuntimeError" in s.failures[0]


# -- closed forms against hand-computed cases --------------------------------


def _naive_dim(gens, n, N, p):
    """F_p-dimension of the ideal of A = F_p[x]/(x^N)[y]/(y^n) spanned by gens.

    gens are dicts {(x-degree, y-degree): coefficient}; the span is taken of
    every monomial multiple, by plain Gaussian elimination.
    """
    rows = []
    for g in gens:
        for i in range(n):
            for a in range(N):
                row = [0] * (n * N)
                for (ga, gi), c in g.items():
                    if ga + a < N and gi + i < n:
                        row[(gi + i) * N + ga + a] = c % p
                rows.append(row)
    rank = 0
    for col in range(n * N):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(v - c * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_ideal_length_matches_hand_and_brute_force():
    # (x^2, x*y, y^2) in n = 3: A/I has basis 1, x, y
    assert expect.ideal_length(3, 10, (1, 2)) == 30 - 3
    assert _naive_dim([{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], 3, 10, 2) == 27
    # (x^2 + x*y, y^2) in n = 3, the single-jump shape with z = (0, 1)
    assert _naive_dim([{(2, 0): 1, (1, 1): 1}, {(0, 2): 1}], 3, 12, 3) == expect.ideal_length(3, 12, (0, 2))
    # (x^2 + y, y^3) in n = 4, beta = (0, 0, 2): A/I = F_p[x]/(x^6)
    assert _naive_dim([{(2, 0): 1, (0, 1): 1}, {(0, 3): 1}], 4, 12, 2) == expect.ideal_length(4, 12, (0, 0, 2)) == 42
    # the monomial n = 4 ideal of beta = (0, 1, 2): (x^2, x^2*y, x*y^2, y^3)
    gens = [{(2, 0): 1}, {(2, 1): 1}, {(1, 2): 1}, {(0, 3): 1}]
    assert _naive_dim(gens, 4, 16, 2) == expect.ideal_length(4, 16, (0, 1, 2)) == 64 - 5


def test_stalk_closed_forms_by_hand():
    assert expect.single_jump_beta(5, 2, 2) == (0, 2, 2, 2)
    assert expect.jump_of((0, 2, 2, 2)) == (2, 2) and expect.jump_of((0, 1, 2)) is None
    assert expect.dual_indices((1, 2)) == (1, 2)
    assert expect.dual_indices((0, 1, 2)) == (1, 2, 2)
    assert expect.dual_indices((0, 0, 3)) == (3, 3, 3)
    assert expect.ext1_length(3, (1, 2)) == 6           # 2*b2 + 2*min(b1, b2 - b1)
    assert expect.ext1_length(3, (0, 3)) == 6           # single jump: 2*min(2, 1)*3
    assert expect.ext1_length(5, (0, 2, 2, 2)) == 8     # 2*min(2, 3)*2
    assert expect.ext1_length(4, (1, 2, 3)) is None
    assert expect.class_count(3, (1, 2), 2) == 2
    assert expect.class_count(3, (0, 2), 2) == 1
    assert expect.class_count(4, (0, 1, 1), 2) == 2
    assert expect.class_count(5, (0, 2, 2, 2), 3) == 9


def test_curve_closed_forms_by_hand():
    assert expect.genus(3, 2, 1) == 7
    assert expect.stability(3, 1, (0, 1)) == (True, True, ())
    assert expect.stability(3, 1, (1, 2)) == (True, False, (1, 2))
    assert expect.stability(3, 1, (0, 3)) == (False, False, ())
    assert expect.component_labels(3, 1, 0) == [(0, 0)]
    assert expect.component_labels(3, 2, 1) == [(0, 1), (1, 3), (2, 2)]
    assert expect.generic_tangent(3, 2, 1, (0, 1)) == 8
    assert expect.jh_factors(2, 4, (2,), (1,)) == [(1, Fraction(2), ()), (1, Fraction(2), ())]
    assert expect.connectivity_ok(3, 2, 1) and not expect.connectivity_ok(3, 2, 2)
    assert expect.monotone_vectors(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


# -- tracing -------------------------------------------------------------------


def test_tracer_rebinds_direct_imports_and_restores_them():
    import multicurve.ext as ext
    import multicurve.normal_form as nf

    original = md.lift_module
    tracer = Tracer()
    tracer.install()
    try:
        assert md.lift_module is not original
        assert ext.lift_module is md.lift_module and nf.indices is md.indices
    finally:
        tracer.uninstall()
    assert md.lift_module is original and ext.lift_module is original


def _traced_counts(work):
    tracer = Tracer()
    tracer.install()
    try:
        Session(tracer).run(work.queries(0))
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics({"import_s": 0, "inputs_s": 0, "warmup_s": 0}).items()
            if k.endswith((".calls", "_ratio", ".oracle_calls", ".raised", "trace.spans"))}


def test_traced_counts_repeat_exactly_and_follow_the_routing():
    first = _traced_counts(ModuliSweep(4))
    assert first == _traced_counts(ModuliSweep(4))
    assert first["cli.main.calls"] > 0
    assert all(v == 0 for k, v in first.items() if k.startswith(("linalg.", "modules.")))
    stalks = _traced_counts(StalkCertify(4, WARMUP))
    assert stalks["modules.is_isomorphic_oracle.calls"] == 0 and stalks["linalg.insert.calls"] > 0
    assert all(stalks[f"{layer}.raised"] == 0 for layer in LAYERS)


def test_benchmark_json_matches_the_code():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from run import END_TO_END

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
