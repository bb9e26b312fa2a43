"""Golden differential: the package's answers on a fixed, seeded grid of stalks.

`golden.json` holds, per stalk, the indices (also by definition), both graded
reports, the dual's indices, pivots and an RREF digest (also of the dual of a
generator-less copy when n*N <= 64), `normalize_special`, `local_ext1_length` and the
iso verdicts against a unit-disguised copy and a different stalk.  Any change of
representation or algorithm must leave every entry equal.

Regenerate (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

from multicurve import ext, modules
from multicurve.errors import MultiCurveError
from multicurve.ext import local_ext1_length
from multicurve.modules import (
    ModuleRep,
    dual_module_oracle,
    graded_report,
    indices,
    indices_by_definition,
    is_isomorphic_oracle,
    span_from_generators,
)
from multicurve.normal_form import (
    ideal_from_indices,
    make_general_form,
    make_special_form,
    normalize_special,
    special_ideal,
)
from multicurve.ring import RingParams, parse_elem, required_precision

FIXTURE = pathlib.Path(__file__).with_name("golden.json")

# (n, b, j, p): single-jump stalks; each gets z = 0 and, where its z grid has
# a row (min(j, n - j) >= 2), a seeded z != 0
SPECIAL = [
    (3, 1, 1, 2), (3, 2, 2, 3), (3, 2, 1, 65521),
    (4, 1, 2, 3), (4, 2, 2, 2), (4, 1, 1, 65521),
    (5, 1, 2, 3), (5, 1, 3, 2), (6, 1, 3, 65521),
]
# (n, beta, alpha, p): general presentations, several generators each
GENERAL = [
    (3, (1, 3), {}, 2),
    (4, (1, 2, 3), {(3, 1): (1,), (4, 2): (1,)}, 3),
    (4, (0, 1, 2), {(4, 1): (1,)}, 65521),
    (5, (0, 1, 1, 2), {(5, 3): (2,)}, 3),
]
# (index into SPECIAL, unit): copies of a z != 0 stalk whose generators are
# not its first RREF row, once times the unit and once times x
DISGUISED = [(4, "1 + x^2 + y"), (6, "2 + x + 2*x*y")]
# (n, N, p, generators, other generators): a stalk below N_min whose dual
# needs the colon at n*v > N (v = 3, the y-degree-0 valuation)
BELOW_N_MIN = [(4, 9, 3, ("x^3 + y", "y^2"), ("x^3", "y^2"))]


def _z_grid(n, b, j, p, seed):
    rng = np.random.default_rng(seed)
    rows = min(j, n - j) - 1
    z = rng.integers(0, p, size=(rows, b)).tolist()
    if rows:
        z[0][0] = z[0][0] or 1
    return z


def _digest(M):
    return hashlib.sha256(M.num.rows().tobytes()).hexdigest()[:16]


def _runs(pivots):
    """Pivot columns as [first, last] runs of consecutive values."""
    out = []
    for c in pivots:
        if out and out[-1][1] == c - 1:
            out[-1][1] = c
        else:
            out.append([c, c])
    return out


def _or_error(compute):
    """compute(), or the name of the package error it raises."""
    try:
        return compute()
    except MultiCurveError as exc:
        return type(exc).__name__


def _dual_record(M):
    D = dual_module_oracle(M)
    return {"indices": list(indices(D)), "pivots": _runs(D.num.pivots), "digest": _digest(D)}


def _disguised(M, unit_text):
    """The module spanned by M's generators times an element: M itself when
    the element is a unit."""
    u = parse_elem(unit_text, M.params)
    return span_from_generators([u * g[0] for g in M.gens], params=M.params)


def _mod(par, texts):
    return span_from_generators([parse_elem(t, par) for t in texts], params=par)


def _record(M, other, *, special):
    rec = {
        "indices": list(indices(M)),
        "indices_by_definition": list(indices_by_definition(M)),
        "graded_first": [list(v) for v in graded_report(M, "first").levels],
        "graded_second": [list(v) for v in graded_report(M, "second").levels],
        "digest": _digest(M),
        "dual": _dual_record(M),
        "ext1": _or_error(lambda: local_ext1_length(M)),
    }
    if M.width <= 64:
        rec["dual_gensless"] = _dual_record(ModuleRep(M.params, 1, M.num))
    if special:
        rec["normal_form"] = normalize_special(M).to_json()
    same = _disguised(M, "1 + x + x*y")
    rec["iso"] = {"same": is_isomorphic_oracle(M, same), "other": is_isomorphic_oracle(M, other)}
    return rec


def compute():
    out = {}
    for k, (n, b, j, p) in enumerate(SPECIAL):
        par = RingParams(n, required_precision(n, b), p)
        z = _z_grid(n, b, j, p, seed=k)
        plain = special_ideal(make_special_form(n, b, j), par)
        twisted = special_ideal(make_special_form(n, b, j, z), par)
        out[f"special n={n} b={b} j={j} p={p} z=0"] = _record(plain, twisted, special=True)
        if z:
            out[f"special n={n} b={b} j={j} p={p} z={z}"] = _record(twisted, plain, special=True)
    for n, beta, alpha, p in GENERAL:
        par = RingParams(n, required_precision(n, max(beta)), p)
        M = ideal_from_indices(make_general_form(n, beta, alpha), par)
        other = ideal_from_indices(make_general_form(n, beta), par)
        key = f"general n={n} beta={list(beta)} alpha={sorted(alpha.items())} p={p}"
        out[key] = _record(M, other, special=False)
    for k, unit in DISGUISED:
        n, b, j, p = SPECIAL[k]
        par = RingParams(n, required_precision(n, b), p)
        z = _z_grid(n, b, j, p, seed=k)
        plain = special_ideal(make_special_form(n, b, j), par)
        twisted = special_ideal(make_special_form(n, b, j, z), par)
        key = f"special n={n} b={b} j={j} p={p} z={z}"
        out[f"{key} times {unit}"] = _record(_disguised(twisted, unit), plain, special=True)
        out[f"{key} times x"] = _record(_disguised(twisted, "x"), plain, special=True)
    for n, N, p, gens, other in BELOW_N_MIN:
        par = RingParams(n, N, p)
        key = f"below N_min n={n} N={N} p={p} ({', '.join(gens)})"
        out[key] = _record(_mod(par, gens), _mod(par, other), special=True)
    return out


def test_golden_differential():
    expected = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(compute()))
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


def test_below_n_min_iso_verdicts_need_the_working_precision():
    # at N = 9 < n*(v_0 + v'_0) = 24 the oracle reads Hom at W = 24; read at
    # N, the kernel over F_p[x]/(x^(N - v'_0)) has rank 6, not 4
    expected = json.loads(FIXTURE.read_text())
    for n, N, p, gens, other in BELOW_N_MIN:
        par = RingParams(n, N, p)
        M = _mod(par, gens)
        stored = expected[f"below N_min n={n} N={N} p={p} ({', '.join(gens)})"]["iso"]
        assert is_isomorphic_oracle(M, _disguised(M, "1 + x + x*y")) == stored["same"]
        assert is_isomorphic_oracle(M, _mod(par, other)) == stored["other"]


def test_below_n_min_certified_calls_lift_to_two_precisions(monkeypatch):
    # the oracle and Ext^1 both work at W = n*(v_0 + v'_0) = 24 > N + 2, and
    # certify at W and W + 2, so the second pass is not a repeat of the first
    def spy(M, N_new):
        seen.append(N_new)
        return lift(M, N_new)

    lift, seen = modules.lift_module, []
    for layer in (modules, ext):
        monkeypatch.setattr(layer, "lift_module", spy)
    for n, N, p, gens, other in BELOW_N_MIN:
        par = RingParams(n, N, p)
        M, Mp = _mod(par, gens), _mod(par, other)
        for call in (lambda: is_isomorphic_oracle(M, Mp), lambda: local_ext1_length(M)):
            seen.clear()
            call()
            assert set(seen) == {24, 26}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in compute().items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
