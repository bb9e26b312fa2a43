"""The three benchmark workloads.

Each workload turns a seed into rounds of queries.  A query is one public
call of multicurve that a user waits for, paired with a check of its answer
against a value from `expect` (never from the library).  Every round holds
one item of every stratum, in a seeded order, so each stratum samples every
phase of a noisy host.  The seed picks the free parameters (z-grids, alpha,
genus, ...) and an offset into fixed rotations of the jump position and the
degree.  The parameters that set a query's cost (n, the largest index, p and
the number of component labels) are fixed per stratum slot, so every run has
the same cost mix whatever its seed.

The warm-up stream uses parameter values the timed stream never uses
(p = 5 for stalks, g1 = 5 for curves), so the two can never overlap.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import expect

TIMED, WARMUP = "timed", "warmup"
WARMUP_PRIME = 5
WARMUP_G1 = 5


@dataclass(frozen=True)
class Query:
    kind: str
    stratum: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right


class Session:
    """Runs queries in a closed loop: times each call, checks each answer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []  # seconds, one per attempted query
        self.failed = 0
        self.failures: list[str] = []     # the first few, for the report

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, queries) -> None:
        clock = time.perf_counter
        for q in queries:
            if self.tracer is not None:
                self.tracer.start_query(q.stratum)
            start = clock()
            try:
                out = q.call()
            except Exception as exc:  # a failed query is counted; the run goes on
                self.latencies.append(clock() - start)
                self._fail(q, f"{type(exc).__name__}: {exc}")
                continue
            self.latencies.append(clock() - start)
            try:
                err = q.check(out)
            except Exception as exc:  # an answer of the wrong shape is a wrong answer
                err = f"unreadable answer: {type(exc).__name__}: {exc}"
            if err is not None:
                self._fail(q, err)

    def _fail(self, q: Query, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{q.kind} [{q.stratum}]: {message}")


def _equal(what: str, want):
    def check(got):
        return None if got == want else f"{what}: got {got!r}, want {want!r}"
    return check


class Workload:
    """Seeded rounds of queries; subclasses define the strata."""

    name = ""
    trace_rounds = 1
    strata: tuple[str, ...] = ()

    def __init__(self, seed: int, stream: str = TIMED):
        self.seed = seed
        self.stream = stream
        self.offset = random.Random(f"{self.name}:{stream}:{seed}").randrange(10**6)
        self._rounds: dict[int, list] = {}

    def rng(self, r: int, tag: str = "") -> random.Random:
        return random.Random(f"{self.name}:{self.stream}:{self.seed}:{r}{tag}")

    def items(self, r: int) -> list:
        """Input specs of round r (hashable, cached)."""
        if r not in self._rounds:
            specs = self._make_items(r)
            self.rng(r, ":order").shuffle(specs)
            self._rounds[r] = specs
        return self._rounds[r]

    def prepare(self, rounds: int) -> None:
        """Generate the inputs of the first `rounds` rounds (and build any pool)."""
        for r in range(rounds):
            self.items(r)

    def queries(self, r: int) -> list[Query]:
        out = []
        for spec in self.items(r):
            out.extend(self._queries(spec))
        return out

    def _make_items(self, r: int) -> list:
        raise NotImplementedError

    def _queries(self, spec) -> list[Query]:
        raise NotImplementedError


# -- stalk_certify ---------------------------------------------------------


@dataclass(frozen=True)
class StalkSpec:
    stratum: str
    kind: str                  # "special" or "general"
    n: int
    p: int
    N: int
    beta: tuple[int, ...]
    j: int = 0                 # special only
    z: tuple[tuple[int, ...], ...] = ()
    alpha: tuple[int, ...] = ()  # general n = 3 only: the alpha_(3,1) coefficients


# (stratum, kind, n, largest index, p): (n, b) set the cost of an item.
STALK_SLOTS = (
    ("n3", "special", 3, 2, 2),
    ("n3", "general", 3, 3, 3),
    ("n4", "special", 4, 2, 3),
    ("n4", "general", 4, 2, 2),
    ("n5", "special", 5, 1, 2),
    ("n6", "special", 6, 1, 3),
)
STALK_WARMUP_SLOTS = (
    ("n3", "special", 3, 1, WARMUP_PRIME),
    ("n3", "general", 3, 2, WARMUP_PRIME),
    ("n4", "special", 4, 1, WARMUP_PRIME),
)
N4_GENERAL = ((0, 1, 2), (1, 1, 2), (1, 2, 2))


class StalkCertify(Workload):
    """A fresh stalk per item, built and given its full certified invariant set."""

    name = "stalk_certify"
    trace_rounds = 3
    strata = tuple(s[0] for s in STALK_SLOTS)

    def _make_items(self, r):
        rng = self.rng(r)
        slots = STALK_SLOTS if self.stream == TIMED else STALK_WARMUP_SLOTS
        specs = []
        for k, (stratum, kind, n, top, p) in enumerate(slots):
            turn = r + self.offset + k
            N = expect.required_precision(n, top)
            if kind == "special":
                j = 1 + turn % (n - 1)
                z = tuple(tuple(rng.randrange(p) for _ in range(top))
                          for _ in range(expect.jbar(n, j)))
                specs.append(StalkSpec(stratum, kind, n, p, N,
                                       expect.single_jump_beta(n, top, j), j=j, z=z))
            elif n == 3:
                b1 = 1 + turn % (top - 1)
                alpha = tuple(rng.randrange(p) for _ in range(top - b1))
                specs.append(StalkSpec(stratum, kind, n, p, N, (b1, top), alpha=alpha))
            else:
                specs.append(StalkSpec(stratum, kind, n, p, N, N4_GENERAL[turn % len(N4_GENERAL)]))
        return specs

    def _queries(self, spec: StalkSpec):
        from multicurve import ext, modules as md, normal_form as nf
        from multicurve.ring import RingParams

        n, beta = spec.n, spec.beta
        state = {}

        def build():
            par = RingParams(n, spec.N, spec.p)
            if spec.kind == "special":
                form = nf.make_special_form(n, beta[-1], spec.j, spec.z)
                state["M"] = nf.special_ideal(form, par)
            else:
                alpha = {(3, 1): spec.alpha} if spec.alpha else None
                state["M"] = nf.ideal_from_indices(nf.make_general_form(n, beta, alpha), par)
            return state["M"]

        length = expect.ideal_length(n, spec.N, beta)
        s = spec.stratum
        out = [
            Query("build", s, build, lambda M: _equal("ideal length", length)(M.length())),
            Query("indices", s, lambda: md.indices(state["M"]), _equal("indices", beta)),
            Query("indices_by_definition", s, lambda: md.indices_by_definition(state["M"]),
                  _equal("indices by definition", beta)),
            Query("graded_second", s, lambda: md.graded_report(state["M"], "second").levels,
                  _equal("second graded report", expect.second_graded(n))),
            Query("dual_indices", s, lambda: md.indices(md.dual_module_oracle(state["M"])),
                  _equal("dual indices", expect.dual_indices(beta))),
        ]
        ext1 = expect.ext1_length(n, beta)
        if ext1 is not None:
            out.append(Query("ext1", s, lambda: ext.local_ext1_length(state["M"]),
                             _equal("Ext^1 length", ext1)))
        return out


# -- iso_classify ----------------------------------------------------------


@dataclass(frozen=True)
class IsoSource:
    stratum: str
    n: int
    b: int
    j: int
    p: int
    z: tuple[tuple[int, ...], ...]
    partner_z: tuple[tuple[int, ...], ...] | None  # a different grid, when jbar >= 1
    units: tuple[tuple[int, int, int], ...]        # four units c0 + c_x*x + c_y*y, c0 != 0


@dataclass(frozen=True)
class IsoItem:
    kind: str          # "yes", "no", "normalize", "enumerate"
    source: int        # pool index, or enumeration config index
    copy: int = 0


# (stratum, n, b, j, p); jbar(n, j) >= 1 gives the source a no-partner.
ISO_SOURCES = (
    ("n3", 3, 1, 1, 2),
    ("n3", 3, 2, 2, 3),
    ("n4", 4, 1, 2, 3),
    ("n4", 4, 2, 2, 2),
    ("n5", 5, 1, 2, 2),
    ("n5", 5, 1, 3, 3),
)
ISO_WARMUP_SOURCES = (("n4", 4, 1, 2, WARMUP_PRIME),)
# (n, beta_max, p): similar cost, so each sits in the same cost band.
ENUM_CONFIGS = ((3, 2, 2), (4, 1, 2))
ENUM_WARMUP_CONFIGS = ((3, 1, WARMUP_PRIME),)


class IsoClassify(Workload):
    """A small seeded pool of stalks, queried over and over."""

    name = "iso_classify"
    trace_rounds = 3
    strata = ("n3", "n4", "n5", "enum")

    def __init__(self, seed, stream=TIMED):
        super().__init__(seed, stream)
        rng = random.Random(f"{self.name}:{stream}:{seed}:pool")
        sources = ISO_SOURCES if stream == TIMED else ISO_WARMUP_SOURCES
        self.sources = []
        for stratum, n, b, j, p in sources:
            rows = expect.jbar(n, j)
            z = tuple(tuple(rng.randrange(p) for _ in range(b)) for _ in range(rows))
            partner = None
            if rows:
                partner = z
                while partner == z:
                    partner = tuple(tuple(rng.randrange(p) for _ in range(b)) for _ in range(rows))
            units = tuple((rng.randrange(1, p), rng.randrange(p), rng.randrange(p)) for _ in range(4))
            self.sources.append(IsoSource(stratum, n, b, j, p, z, partner, units))
        self.enum_configs = ENUM_CONFIGS if stream == TIMED else ENUM_WARMUP_CONFIGS
        self.pool = None

    def prepare(self, rounds):
        super().prepare(rounds)
        if self.pool is None:
            self.pool = [self._build(src) for src in self.sources]

    def _build(self, src: IsoSource):
        """Source module, its two disguised copies and its no-partner."""
        from multicurve import modules as md, normal_form as nf
        from multicurve.ring import RingElem, RingParams

        par = RingParams(src.n, expect.required_precision(src.n, src.b + 1), src.p)
        source = nf.special_ideal(nf.make_special_form(src.n, src.b, src.j, src.z), par)
        (lead,), (yj,) = source.gens

        def elem(c0, cx, cy, xshift=0):
            grid = [[0] * par.N for _ in range(par.n)]
            grid[0][xshift] = c0
            grid[0][xshift + 1] = cx
            grid[1][xshift] = cy
            return RingElem(par, grid)

        u = src.units
        # reordered generators times units; then the same shifted by x
        copy0 = md.span_from_generators([elem(*u[0]) * yj, elem(*u[1]) * lead], params=par)
        copy1 = md.span_from_generators([elem(*u[2], xshift=1) * lead, elem(*u[3], xshift=1) * yj],
                                        params=par)
        partner = None
        if src.partner_z is not None:
            partner = nf.special_ideal(nf.make_special_form(src.n, src.b, src.j, src.partner_z), par)
        return source, (copy0, copy1), partner

    def _make_items(self, r):
        items = []
        for k, src in enumerate(self.sources):
            turn = r + self.offset + k
            items.append(IsoItem("yes", k, turn % 2))
            if src.partner_z is not None:
                items.append(IsoItem("no", k))
            items.append(IsoItem("normalize", k, (turn + 1) % 2))
        items.append(IsoItem("enumerate", (r + self.offset) % len(self.enum_configs)))
        return items

    def _queries(self, item: IsoItem):
        from multicurve import modules as md, normal_form as nf
        from multicurve.ring import RingParams

        if item.kind == "enumerate":
            n, top, p = self.enum_configs[item.source]
            par = RingParams(n, expect.required_precision(n, top), p)
            return [Query("enumerate", "enum",
                          lambda: nf.enumerate_invertible_modules(n, top, par),
                          lambda got: check_classes(got, n, top, p))]
        src = self.sources[item.source]
        source, copies, partner = self.pool[item.source]
        s = src.stratum
        if item.kind == "yes":
            other = copies[item.copy]
            return [Query("iso_yes", s, lambda: md.is_isomorphic_oracle(source, other),
                          _equal("verdict", "yes"))]
        if item.kind == "no":
            return [Query("iso_no", s, lambda: md.is_isomorphic_oracle(source, partner),
                          _equal("verdict", "no"))]
        copy = copies[item.copy]
        want = (src.n, src.b, src.j, src.z)
        return [Query("normalize", s, lambda: nf.normalize_special(copy),
                      lambda got: _equal("normal form", want)((got.n, got.b, got.j, got.z)))]


def check_classes(entries, n: int, top: int, p: int) -> str | None:
    """Every index vector up to `top` appears, and its non-duplicate forms
    number the closed-form class count."""
    classes: dict[tuple[int, ...], int] = {}
    for e in entries:
        classes.setdefault(tuple(e.form.beta), 0)
        if e.duplicate_of is None:
            classes[tuple(e.form.beta)] += 1
    want_betas = expect.monotone_vectors(n - 1, top)
    if sorted(classes) != want_betas:
        return f"index vectors {sorted(classes)} != {want_betas}"
    for beta, got in sorted(classes.items()):
        want = expect.class_count(n, beta, p)
        if want is not None and got != want:
            return f"classes of beta={beta}: got {got}, want {want}"
    return None


# -- moduli_sweep ----------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    stratum: str
    n: int
    g1: int
    delta: int
    degree: int
    scan: tuple[tuple[int, ...], ...]        # vectors for `stability`, in query order
    semistable: tuple[tuple[int, ...], ...]  # the strictly semistable ones among them, for `jh`


# (stratum, n, delta, degrees): connectivity stays in milliseconds for these,
# and every listed degree gives the same number of component labels.
MODULI_SLOTS = (
    ("n3", 3, 3, (1, 2)),
    ("n4", 4, 2, (1, 2, 3)),
    ("n5", 5, 1, (1, 2, 3, 4)),
    ("n6", 6, 1, (2, 4)),
)
MODULI_WARMUP_SLOTS = (("n3", 3, 1, (0,)), ("n4", 4, 1, (1,)))
SCAN_PER_CURVE = 16
SS_PER_CURVE = 4


@dataclass
class _CurveFacts:
    labels: list = field(default_factory=list)
    strictly_semistable: list = field(default_factory=list)
    others: list = field(default_factory=list)


class ModuliSweep(Workload):
    """One curve per item, surveyed through in-process CLI calls."""

    name = "moduli_sweep"
    trace_rounds = 20
    strata = tuple(s[0] for s in MODULI_SLOTS)

    def __init__(self, seed, stream=TIMED):
        super().__init__(seed, stream)
        self._facts: dict[tuple[int, int, int], _CurveFacts] = {}

    def facts(self, n: int, delta: int, degree: int) -> _CurveFacts:
        key = (n, delta, degree)
        if key not in self._facts:
            f = _CurveFacts(labels=expect.component_labels(n, delta, degree))
            for beta in expect.monotone_vectors(n - 1, n * delta):
                semi, stable, _ = expect.stability(n, delta, beta)
                (f.strictly_semistable if semi and not stable else f.others).append(beta)
            self._facts[key] = f
        return self._facts[key]

    def _make_items(self, r):
        rng = self.rng(r)
        slots = MODULI_SLOTS if self.stream == TIMED else MODULI_WARMUP_SLOTS
        specs = []
        for k, (stratum, n, delta, degrees) in enumerate(slots):
            degree = degrees[(r + self.offset + k) % len(degrees)]
            g1 = rng.choice((2, 3)) if self.stream == TIMED else WARMUP_G1
            f = self.facts(n, delta, degree)
            semistable = [rng.choice(f.strictly_semistable) for _ in range(SS_PER_CURVE)]
            scan = semistable + [rng.choice(f.others) for _ in range(SCAN_PER_CURVE - SS_PER_CURVE)]
            rng.shuffle(scan)
            specs.append(CurveSpec(stratum, n, g1, delta, degree, tuple(scan), tuple(semistable)))
        return specs

    def _queries(self, spec: CurveSpec):
        n, g1, delta, degree = spec.n, spec.g1, spec.delta, spec.degree
        curve = ["--n", str(n), "--delta", str(delta), "--g1", str(g1), "--degree", str(degree)]
        s = spec.stratum
        labels = self.facts(n, delta, degree).labels
        out = [Query("components", s, lambda: run_cli(["components", *curve]),
                     lambda got: check_components(got, n, g1, delta, labels))]
        for beta in labels:
            out.append(Query("tangent", s, lambda b=beta: run_cli(["tangent", *curve, "--beta", _vec(b)]),
                             lambda got, b=beta: check_tangent(got, n, g1, delta, b)))
        for beta in spec.scan:
            out.append(Query("stability", s, lambda b=beta: run_cli(["stability", *curve, "--beta", _vec(b)]),
                             lambda got, b=beta: check_stability(got, n, delta, b)))
        for beta in spec.semistable:
            out.append(Query("jh", s, lambda b=beta: run_cli(["jh", *curve, "--beta", _vec(b)]),
                             lambda got, b=beta: check_jh(got, n, delta, degree, b)))
        return out


def _vec(beta) -> str:
    return ",".join(str(v) for v in beta)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`multicurve <argv>` in process, with its standard output captured."""
    from multicurve import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _payload(got) -> tuple[dict | None, str | None]:
    code, text = got
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"unparsable output: {exc}"


def _fraction(value) -> Fraction:
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return Fraction(value)


def check_components(got, n, g1, delta, labels) -> str | None:
    data, err = _payload(got)
    if err:
        return err
    genus = expect.genus(n, g1, delta)
    want = [{"beta": list(b), "dimension": genus,
             "tangent_dim": expect.generic_tangent(n, g1, delta, b),
             "divisibility_ok": True} for b in labels]
    if data.get("genus") != genus:
        return f"genus {data.get('genus')} != {genus}"
    if data.get("components") != want:
        return f"components {data.get('components')} != {want}"
    if not expect.connectivity_ok(n, len(labels), data.get("connected_components")):
        return f"connected components {data.get('connected_components')} outside the proven bounds"
    return None


def check_tangent(got, n, g1, delta, beta) -> str | None:
    data, err = _payload(got)
    if err:
        return err
    want = {"tangent_dim": expect.generic_tangent(n, g1, delta, beta), "beta": list(beta)}
    got_vals = {"tangent_dim": data.get("tangent_dim"), "beta": data.get("beta")}
    return None if got_vals == want else f"tangent {got_vals} != {want}"


def check_stability(got, n, delta, beta) -> str | None:
    data, err = _payload(got)
    if err:
        return err
    semi, stable, eqs = expect.stability(n, delta, beta)
    want = {"semistable": semi, "stable": stable, "equality_positions": list(eqs)}
    got_vals = {k: data.get(k) for k in want}
    return None if got_vals == want else f"stability of {beta}: {got_vals} != {want}"


def check_jh(got, n, delta, degree, beta) -> str | None:
    data, err = _payload(got)
    if err:
        return err
    positions = expect.stability(n, delta, beta)[2]
    if data.get("positions") != list(positions):
        return f"JH positions {data.get('positions')} != {list(positions)}"
    want = expect.jh_factors(n, degree, beta, positions)
    try:
        got_f = [(f["multiplicity"], _fraction(f["degree"]), tuple(f["beta"]), _fraction(f["slope"]))
                 for f in data.get("factors", [])]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed JH factors: {exc!r}"
    slope = Fraction(degree, n)
    if [g[:3] for g in got_f] != want or any(g[3] != slope for g in got_f):
        return f"JH factors {got_f} != {want} with slope {slope}"
    return None


WORKLOADS = {w.name: w for w in (StalkCertify, IsoClassify, ModuliSweep)}
