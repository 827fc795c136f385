"""The benchmark's workloads: request schedules, set-up, and answer checks.

Each workload is a fixed round of requests whose structure (command, m, k,
field, sizes) does not depend on the seed; the seed only draws the numbers
inside the inputs.  A run repeats whole rounds, so every run measures the
same mix whatever its length.  All workloads are single-process,
single-threaded closed loops with one client.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs as gen
from inputs import Q, QI

PACKAGE = "cliffordefb"


def import_program(src: Path):
    """Import the package afresh from `src`, dropping any earlier import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    location = Path(package.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"{PACKAGE} was imported from {location}, not from {src}")
    for sub in ("cli", "harness", "serialize", "matrixrep"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    return package


def _mod(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


# -- host speed ---------------------------------------------------------------------

REFERENCE_S = 0.003  # reported times are for a host where reference_work() takes this long
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.25  # the host's speed drifts over seconds; one sample jitters


def reference_work():
    """Fixed exact arithmetic of the kind the program spends its time on."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return total


class Gauge:
    """The host's speed, sampled by timing reference_work() between requests.

    On a shared host the same work takes up to 1.8 times as long from one
    few-second stretch to the next.  A request's time multiplied by
    REFERENCE_S over the reference time measured around it reads as its time
    at one fixed host speed.  Samples are at most SAMPLE_EVERY_S apart while
    requests run.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self, force: bool = True):
        """Time reference_work(); unless forced, only when the last sample is old."""
        if not force and self.ends and time.perf_counter() - self.ends[-1] < SAMPLE_EVERY_S:
            return
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample taken within WINDOW_S of the
        interval, or over the mean of the samples just before and after it."""
        window = self.durations[
            bisect.bisect_left(self.starts, start - WINDOW_S) : bisect.bisect_right(self.ends, end + WINDOW_S)
        ]
        if not window:
            before = bisect.bisect_right(self.ends, start) - 1
            after = bisect.bisect_left(self.starts, end)
            window = [self.durations[i] for i in (before, after) if 0 <= i < len(self.durations)]
        return REFERENCE_S / statistics.median(window)


class Workload:
    """A fixed round of requests; subclasses define the requests and checks."""

    name = ""
    setup_reps = 9
    min_rounds = 3  # every request repeats; its median repeat is reported

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.requests: list[dict] = self.generate(gen.seeded(seed, self.name))
        self.input_digest = gen.digest([r["input"] for r in self.requests])
        self.gauge = Gauge()

    def generate(self, rng) -> list[dict]:
        raise NotImplementedError

    def setup(self, tracer=None):
        """Import (and warm), instrumenting when a tracer is given; timed.
        Spans are recorded while the tracer is enabled."""
        import_program(self.src)
        if tracer is not None:
            import tracing

            tracing.instrument(tracer)

    def prepare(self):
        """Untimed: turn inputs into the objects the requests call with."""
        self._first: dict[int, tuple] = {}

    def call(self, request):
        raise NotImplementedError

    def check(self, request, result) -> tuple[bool, str]:
        """(answer is right, canonical output text)."""
        raise NotImplementedError

    def round(self, tracer, round_index: int):
        """Run every request once: list of (scaled latency, ok, output text,
        raw latency), latencies in seconds (see Gauge)."""
        timed = []
        self.gauge.sample()
        for i, request in enumerate(self.requests):
            self.gauge.sample(force=False)
            start = time.perf_counter()
            try:
                if tracer.enabled:
                    result = tracer.run_request(f"{round_index}.{i}", self.call, request)
                else:
                    result = self.call(request)
            except Exception as exc:  # any exception is a failed request
                timed.append((start, time.perf_counter(), False, f"{type(exc).__name__}: {exc}"))
                continue
            end = time.perf_counter()
            timed.append((start, end, *self._verdict(tracer, i, request, result)))
        self.gauge.sample()
        return self.scaled(timed)

    def scaled(self, timed):
        return [
            ((end - start) * self.gauge.scale(start, end), ok, text, end - start)
            for start, end, ok, text in timed
        ]

    def _verdict(self, tracer, index, request, result) -> tuple[bool, str]:
        """Check an answer the first time; later rounds must repeat it exactly."""
        first = self._first.get(index)
        if first is not None:
            first_result, ok, text = first
            return (ok, text) if result == first_result else (False, "differs from the first round")
        enabled, tracer.enabled = tracer.enabled, False
        try:
            ok, text = self.check(request, result)
        except Exception as exc:  # a malformed answer is a wrong answer
            ok, text = False, f"{type(exc).__name__}: {exc}"
        finally:
            tracer.enabled = enabled
        self._first[index] = (result, ok, text)
        return ok, text

    def extra_layer_values(self) -> dict[str, float]:
        """Per-round values the workload measures itself (not from spans)."""
        return {}


# -- spinor_cli --------------------------------------------------------------------

# (command, field, m, ks): one request per plane dimension k; constraints use
# simple spinors (k = m).  The round is laid out so that its median and 90th
# percentile fall inside groups of requests of about equal cost, not on the
# edge between two groups; the costs quoted are unscaled fastest repeats on a
# 2-vCPU x86 VM with Python 3.11.
SPINOR_CLI_ROUND = [
    # below the median (47 of 110 requests, 2-12 ms)
    ("annihilator", Q, 4, (1, 2, 3, 4) * 3),
    ("constraints", Q, 4, (4,) * 4),
    ("constraints", QI, 4, (4, 4)),
    ("annihilator", Q, 5, (1, 2, 3, 4, 5) * 2 + (1, 3, 5)),
    ("annihilator", QI, 4, (1, 2, 3, 4) * 2),
    ("annihilator", Q, 6, (5, 6)),
    ("simplicity", Q, 4, (1, 3)),
    ("constraints", Q, 5, (5,) * 4),
    # around the median (15 of one kind, about 14 ms)
    ("annihilator", Q, 6, (3,) * 15),
    # between the median and p90 (31, 18-60 ms)
    ("annihilator", Q, 6, (1, 1)),
    ("annihilator", QI, 5, (1, 2, 3, 4, 5)),
    ("annihilator", Q, 7, (1, 2, 3, 4, 5, 6, 7, 3, 5)),
    ("simplicity", Q, 4, (2, 4)),
    ("simplicity", Q, 5, (1, 2, 3, 4, 1)),
    ("annihilator", Q, 8, (8,)),
    ("simplicity", QI, 4, (1, 2, 3)),
    ("constraints", Q, 6, (6, 6, 6)),
    ("subspace", QI, 4, (1,)),
    # around p90 (11, 60-85 ms)
    ("subspace", Q, 5, (1, 2, 3, 4, 5) * 2),
    ("annihilator", Q, 8, (5,)),
    # the slowest (6, 0.1-0.5 s)
    ("simplicity", Q, 5, (5,)),
    ("simplicity", Q, 6, (2,)),
    ("simplicity", QI, 5, (2,)),
    ("constraints", Q, 7, (7,)),
    ("subspace", Q, 6, (1,)),
    ("simplicity", Q, 7, (1,)),
]


class SpinorCli(Workload):
    """In-process `cli.main` calls on JSON files; every call builds a fresh
    Algebra, as a CLI process does."""

    name = "spinor_cli"

    def generate(self, rng):
        self.workdir.mkdir(parents=True, exist_ok=True)
        requests = []
        for command, field, m, ks in SPINOR_CLI_ROUND:
            for k in ks:
                if command == "subspace":
                    plane, xi, nullity = gen.rand_plane(rng, m, k, field), None, None
                    payload = {"m": m, "vectors": [gen.vector_json(v) for v in plane]}
                else:
                    plane, xi, nullity = gen.spinor_on_plane(rng, m, k, field)
                    payload = gen.spinor_json(xi, m)
                path = self.workdir / f"{len(requests):03d}-{command}-{field}-m{m}-k{k}.json"
                path.write_text(gen.canonical(payload) + "\n", encoding="utf-8")
                argv = [command, "--in", str(path), "--field", field]
                if command == "constraints":
                    argv[1:1] = ["--dim", str(2 * m)]
                requests.append(
                    {
                        "command": command, "field": field, "m": m, "k": k, "argv": argv,
                        "plane": plane, "xi": xi, "nullity": nullity,
                        "input": {"command": command, "field": field, "m": m, "k": k, "data": payload},
                    }
                )
        return requests

    def call(self, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _mod("cli").main(request["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, request, result):
        code, out, err = result
        if code != 0:
            return False, f"exit {code}: {err.strip()}"
        return self._answer_ok(request, json.loads(out)), out

    @staticmethod
    def _parse_vector(vector) -> tuple[list, list]:
        return [gen.parse_scalar(x) for x in vector["alpha"]], [gen.parse_scalar(x) for x in vector["beta"]]

    def _answer_ok(self, request, answer) -> bool:
        command, m, k, xi = request["command"], request["m"], request["k"], request["xi"]
        nullity = request["nullity"]
        if command == "annihilator":
            vectors = [self._parse_vector(v) for v in answer["vectors"]]
            return (
                answer["dimension"] == nullity
                and len(vectors) == nullity
                and gen.rank([alpha + beta for alpha, beta in vectors]) == nullity
                and not any(gen.fock_act(alpha, beta, xi, m) for alpha, beta in vectors)
            )
        if command == "simplicity":
            verdicts = answer["verdicts"]
            simple = nullity == m
            return (
                answer["nullity"] == nullity
                and answer["simple"] == simple
                and all(verdicts[name] == simple for name in ("direct", "cartan_chevalley", "theorem2"))
                and answer["annihilator"]["dimension"] == nullity
                and (not simple or answer["constraints"]["violated"] == 0)
            )
        if command == "subspace":
            basis = answer["basis"]
            dim = 1 << (m - k)
            leads = {min(int(a) for a in s["xi"]) for s in basis}
            spinors = [{int(a): gen.parse_scalar(c) for a, c in s["xi"].items()} for s in basis]
            return (
                answer["dimension"] == dim
                and len(basis) == dim
                and len(leads) == dim  # distinct leading coordinates: independent
                and not any(
                    gen.fock_act(alpha, beta, spinor, m)
                    for spinor in spinors
                    for alpha, beta in request["plane"]
                )
            )
        count = gen.constraint_count(m)
        return (
            answer["count"] == count
            and answer["generated"] == count
            and answer["violated"] == 0
            and answer["satisfied"] == count
        )


# -- element_session --------------------------------------------------------------

ELEMENT_MS = (3, 4, 5, 6)
WITT_MAX_M = 5

# (kind, m, count, sizes)
#   product: sizes = (terms, shared masks)   gamma/witt: sizes = (terms, xor classes)
#   endo: expand_witt of endo_from_pair(omega, omega) for a simple omega
# Laid out like SPINOR_CLI_ROUND: the median and p90 fall inside groups of
# equal-cost requests.
ELEMENT_ROUND = [
    # below the median (47 of 110 requests)
    ("product", 3, 12, (16, 4)),
    ("product", 4, 12, (24, 4)),
    ("product", 5, 12, (32, 4)),
    ("endo", 3, 4, ()),
    ("gamma", 3, 4, (6, 3)),
    ("witt", 3, 3, (6, 3)),
    # around the median (15): 576 term pairs each
    ("product", 6, 15, (48, 4)),
    # between the median and p90 (31)
    ("gamma", 4, 13, (6, 3)),
    ("witt", 4, 8, (6, 3)),
    ("endo", 4, 6, ()),
    ("gamma", 5, 4, (6, 3)),
    # around p90 (11): 5^5 word probes each
    ("witt", 5, 11, (6, 3)),
    # the slowest (6)
    ("endo", 5, 3, ()),
    ("gamma", 6, 3, (4, 2)),
]


class ElementSession(Workload):
    """Python API calls on one warm Algebra per m, reused across requests."""

    name = "element_session"
    setup_reps = 4  # each fills the m = 5 probe cache, about 3 s

    def generate(self, rng):
        requests = []
        for kind, m, count, sizes in ELEMENT_ROUND:
            for _ in range(count):
                if kind == "product":
                    x, y, pairs = gen.product_pair(rng, m, *sizes)
                    data = {"x": x, "y": y, "term_pairs": pairs}
                elif kind == "endo":
                    _plane, xi, _nullity = gen.spinor_on_plane(rng, m, m, Q)
                    data = {"omega": gen.spinor_json(xi, m)}
                else:
                    data = {"x": gen.rand_element(rng, m, *sizes)}
                requests.append({"kind": kind, "m": m, "input": {"kind": kind, "m": m, "data": data}})
        return requests

    def setup(self, tracer=None):
        super().setup(tracer)
        package = sys.modules[PACKAGE]
        bilinear = _mod("bilinear")
        self.algebras = {}
        for m in ELEMENT_MS:
            algebra = package.Algebra(m)
            bilinear.rep_context(algebra)
            bilinear.bilinear_form(algebra)
            if m <= WITT_MAX_M:  # fills the default frame's probe and norm caches
                bilinear.expand_witt(algebra.identity())
            self.algebras[m] = algebra

    def prepare(self):
        super().prepare()
        serialize = _mod("serialize")
        for request in self.requests:
            algebra = self.algebras[request["m"]]
            data = request["input"]["data"]
            if request["kind"] == "endo":
                request["omega"] = serialize.spinor_from_json(data["omega"], algebra)
            else:
                request["x"] = serialize.element_from_json(data["x"], algebra)
                if request["kind"] == "product":
                    request["y"] = serialize.element_from_json(data["y"], algebra)

    def call(self, request):
        bilinear = _mod("bilinear")
        kind, algebra = request["kind"], self.algebras[request["m"]]
        if kind == "product":
            return request["x"] * request["y"]
        if kind == "gamma":
            expansion = bilinear.expand_gamma(request["x"])
            return expansion, bilinear.reconstruct_gamma(algebra, expansion)
        if kind == "witt":
            expansion = bilinear.expand_witt(request["x"])
            return expansion, bilinear.reconstruct_witt(algebra, expansion)
        endo = bilinear.bilinear_form(algebra).endo_from_pair(request["omega"], request["omega"])
        return endo, bilinear.expand_witt(endo)

    def check(self, request, result):
        serialize, bilinear, matrixrep = _mod("serialize"), _mod("bilinear"), _mod("matrixrep")
        kind, algebra = request["kind"], self.algebras[request["m"]]
        if kind == "product":
            rep = bilinear.rep_context(algebra)
            oracle = rep.from_matrix(
                matrixrep.sparse_matmul(rep.to_matrix(request["x"]), rep.to_matrix(request["y"]))
            )
            return result == oracle, gen.canonical(serialize.element_to_json(result))
        if kind == "endo":
            endo, expansion = result
            ok = not endo.is_zero() and bilinear.reconstruct_witt(algebra, expansion) == endo
            return ok, gen.canonical(serialize.witt_expansion_to_json(expansion))
        expansion, rebuilt = result
        x = request["x"]
        ok = rebuilt == x and len(rebuilt.terms) == len(request["input"]["data"]["x"]["terms"])
        if kind == "gamma":
            return ok, gen.canonical(serialize.gamma_expansion_to_json(expansion))
        return ok, gen.canonical(serialize.witt_expansion_to_json(expansion))


# -- verify_suite -----------------------------------------------------------------

SUITE_M = 4
SUITE_TRIALS = 10
# The suite always runs with the project's reference seed.  Its cost varies
# by about 30% between seeds (prop7's randomized strictness search alone
# varies by half), which would swamp the change a run is meant to show.
SUITE_SEED = 42

# harness.CHECKS by name, for the per-check metrics
HARNESS_CHECKS = [
    "scalar_field_axioms", "linalg_kernel_rank_det", "efb_word_roundtrip",
    "efb_product_oracle", "efb_associativity", "efb_gamma_eigen", "efb_gamma_squared",
    "efb_delta_structure", "efb_trace", "efb_main_automorphism", "rep_oracle",
    "vec_square_form", "prop1_null_annihilation", "prop2_vbar", "conj_suite",
    "prop3_cor1", "prop4_bisection", "prop5_subspaces", "prop6_det_scaling",
    "phi_general_position", "prop7_b_orthogonality", "bform_suite",
    "prop8_witt_coefficients", "expansion_roundtrips", "thm1_cartan_chevalley",
    "thm2_generalized", "simplicity_three_way", "constraint_accounting",
    "spinor_switch", "simple_support_bound", "one_dim_not_simple",
]


class VerifySuite(Workload):
    """`run_suite(SUITE_M, SUITE_SEED, SUITE_TRIALS)`, serial; each check is a
    request.  The benchmark seed does not change this workload."""

    name = "verify_suite"
    first_ledger: list[str] | None = None

    def generate(self, rng):
        return [{"input": {"m": SUITE_M, "seed": SUITE_SEED, "trials": SUITE_TRIALS}}]

    def setup(self, tracer=None):
        super().setup(tracer)
        self._tracer = tracer
        self._timings: list[tuple[float, float]] = []
        self._round_index = 0
        checks = _mod("harness").CHECKS
        for i, check in enumerate(checks):
            checks[i] = self._timed(check)

    def _timed(self, check):
        timings = self._timings

        def timed(m, rng, trials):
            self.gauge.sample(force=False)
            start = time.perf_counter()
            try:
                tracer = self._tracer
                if tracer is not None and tracer.enabled:
                    request_id = f"{self._round_index}.{len(timings)}"
                    return tracer.run_request(request_id, check, m, rng, trials)
                return check(m, rng, trials)
            finally:
                timings.append((start, time.perf_counter()))

        timed.__name__ = check.__name__
        return timed

    def round(self, tracer, round_index: int):
        harness = _mod("harness")
        self._timings.clear()
        self._round_index = round_index
        self.gauge.sample()
        start = time.perf_counter()
        try:
            results = harness.run_suite(SUITE_M, seed=SUITE_SEED, trials=SUITE_TRIALS)
        except Exception as exc:  # the whole suite failed
            failed = (start, time.perf_counter(), False, f"{type(exc).__name__}: {exc}")
            self.gauge.sample()
            return self.scaled([failed])
        self.gauge.sample()
        lines = harness.ledger_lines(results)
        self._last = results
        if self.first_ledger is None:
            self.first_ledger = lines
        return self.scaled(
            [
                (start, end, result.passed and line == first, line)
                for (start, end), result, line, first in zip(
                    self._timings, results, lines, self.first_ledger
                )
            ]
        )

    def extra_layer_values(self):
        results = self._last
        return {
            "harness.requested_trials": float(SUITE_TRIALS * len(results)),
            "harness.effective_trials": float(sum(r.trials for r in results)),
        }


WORKLOADS = {w.name: w for w in (SpinorCli, ElementSession, VerifySuite)}
