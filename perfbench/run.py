"""Benchmark of `nullcone` certification: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from `src/` next to
this directory.  Workloads (closed loop, one thread: each input is certified
only after the previous one finished, as a batch certification job does):

  fixtures             the 15 bundled fixtures through `nullcone.cli.main`
                       (`certify --format json`), in a seeded order, over
                       repeated passes; the only workload that exercises CLI
                       parse and render and the rank-2 and rank-3 rules.
  planted_irreducible  planted null forms at ranks 6-10; every input must
                       reach `thm_main_irreducible`; kernel enumeration in
                       the tangent chase dominates.
  planted_reducible    cubics 6 L Q at ranks 5-7; every input must reach
                       `thm_main_reducible`; isotropy, secant sampling and
                       the linear-factor search dominate.

The inputs are built from `--seed` by `inputs.py`; their SHA-256 digest is
printed.  A run makes whole passes over them for about `--seconds`, and at
least MIN_CALLS certify calls.  Times are scaled to a reference machine
speed (see `speed.py`).  Every certificate is checked (see
`check_certificate`) and replayed; failures are counted and listed, never
dropped.  With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics (see `end_to_end`); with `--trace 1` untraced
and span-traced passes alternate over the same inputs, and the object holds
the per-layer metrics (see `per_layer`).  A record of the run, and with
`--trace 1` the spans, go to `.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans as tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402

WORKLOADS = ("fixtures", "planted_irreducible", "planted_reducible")
SETUP_REPEATS = 11
# Far above the slowest input at the seed (about 2.6 s, a rank-10 form).
DEADLINE_S = 20.0
# No new operation starts after this many seconds, so a run ends within
# DEADLINE_S more even when the library has become very slow.
HARD_STOP_S = 140.0
# A run makes at least this many certify calls, so p90 has ten beyond it.
MIN_CALLS = 100
# Each certificate is replayed this many times back to back, and the fastest
# counts: replay is deterministic, so the repeats differ only by noise, which
# is large against a call of a few milliseconds.
REPLAYS = 3
# Rules whose witness E must pair nonzero with c2.
C2_WITNESS_RULES = {
    "thm_main_irreducible",
    "thm_main_reducible",
    "cor_irreducible_b4",
    "prop_b2_2_null_rational",
}
EXIT_CODES = {"certified": 0, "inconclusive": 1, "input_inconsistent": 2}


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"operation exceeded its {DEADLINE_S:g} s deadline")


@contextlib.contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# inputs as operations


class FixtureOp:
    """One bundled fixture, certified through the CLI exactly as a user would,
    whose output must equal the frozen certificate byte for byte."""

    def __init__(self, lib, name: str):
        folder = Path(lib.cli.__file__).parent / "fixtures"
        path = folder / f"{name}.json"
        self.id = name
        self.argv = ["certify", "--input", str(path), "--divisor", "D", "--format", "json"]
        self.expected = (folder / f"{name}.cert.json").read_text(encoding="utf-8")
        self.expected_code = EXIT_CODES[json.loads(self.expected)["conclusion"]]
        self.expected_rule = None
        doc = json.loads(path.read_text(encoding="utf-8"))
        self.entries = {tuple(row[:3]): row[3] for row in doc["intersection"]}
        self.c2_vec = [Fraction(x) for x in doc["c2"]]
        parsed = lib.cli.load_input(str(path))
        self.form, self.c2 = parsed.form, parsed.c2
        self.rank = self.form.rank
        self.record = {"id": name, "input": doc, "expected": self.expected}

    def certify(self, lib):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(self.argv)
        return code, buf.getvalue()

    def certificate(self, lib, out):
        return lib.cli.certificate_from_document(json.loads(out[1]))

    def check_output(self, out) -> list[str]:
        code, text = out
        problems = []
        if text != self.expected:
            problems.append("output differs from the frozen certificate")
        if code != self.expected_code:
            problems.append(f"exit code {code}, expected {self.expected_code}")
        return problems


class PlantedOp:
    """One generated input, certified through the library API."""

    def __init__(self, lib, doc: dict):
        self.id = doc["id"]
        self.rank = doc["rank"]
        self.entries = {tuple(row[:3]): row[3] for row in doc["entries"]}
        self.c2_vec = doc["c2"]
        self.d = tuple(doc["D"])
        self.expected_rule = doc["rule"]
        self.form = lib.nsring.IntersectionForm(self.rank, self.entries)
        self.c2 = lib.nsring.LinearClass(tuple(doc["c2"]))
        self.record = doc

    def certify(self, lib):
        return lib.certify.certify(self.form, self.c2, self.d)

    def certificate(self, lib, out):
        return out

    def check_output(self, out) -> list[str]:
        return []


def check_certificate(op, cert, replayed: bool) -> list[str]:
    """Checks shared by every workload, recomputed without the library."""
    problems = []
    if not replayed:
        problems.append("replay returned False")
    if op.expected_rule is not None and (
        cert.conclusion.value != "certified" or cert.rule != op.expected_rule
    ):
        problems.append(f"{cert.conclusion.value}/{cert.rule}, expected certified/{op.expected_rule}")
    e = cert.witnesses.get("E")
    if cert.conclusion.value == "certified" and e is not None:
        coords = [Fraction(x) for x in e.coords]
        if inputs.cube(op.entries, coords) != 0:
            problems.append("cube(E) != 0")
        if cert.rule in C2_WITNESS_RULES and inputs.dot(op.c2_vec, coords) == 0:
            problems.append("c2.E = 0")
    return problems


def witness_bits(cert):
    """Largest coordinate bit-length of the deciding witness, or None."""
    if cert.conclusion.value != "certified":
        return None
    for name in ("E", "P", "Dprime"):
        w = cert.witnesses.get(name)
        if w is not None:
            return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                       for x in map(Fraction, w.coords))
    return None


# ---------------------------------------------------------------------------
# set-up


class Library:
    """The `nullcone` modules the benchmark calls, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "nullcone" or m.startswith("nullcone.")]:
            del sys.modules[name]
        importlib.import_module("nullcone")
        self.cli = importlib.import_module("nullcone.cli")
        self.certify = importlib.import_module("nullcone.certify")
        self.nsring = importlib.import_module("nullcone.nsring")


def build(workload: str, seed: int):
    """Import the library and build every input of the workload."""
    lib = Library()
    if workload == "fixtures":
        ops = [FixtureOp(lib, name) for name in inputs.fixture_order(lib.cli.fixture_names(), seed)]
    else:
        ops = [PlantedOp(lib, doc) for doc in inputs.planted_set(workload, seed)]
    return lib, ops


def setup(workload: str, seed: int, probe: SpeedProbe):
    """Build SETUP_REPEATS times; keep the last build and the median of the
    scaled times."""
    times = []
    ref = probe.reference()
    for _ in range(SETUP_REPEATS):
        took = {}
        probe.open(ref)
        lib, ops = probe.timed(took, "setup", build, workload, seed)
        speed, ref = probe.close()
        times.append(took["setup"] * speed)
    return lib, ops, statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


class Results:
    """Everything one series of passes measured, by input.  Times are scaled
    to the reference speed (see `speed.py`)."""

    def __init__(self):
        self.certify: dict[str, list[float]] = {}
        self.replay: dict[str, list[float]] = {}
        self.speed: list[float] = []  # REF_S / reference time, one per call
        self.bits: list[int] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0

    @staticmethod
    def samples(times: dict[str, list[float]]) -> list[float]:
        return [t for v in times.values() for t in v]

    @property
    def calls(self) -> int:
        return sum(map(len, self.certify.values()))

    @property
    def certs_per_s(self) -> float:
        return self.calls / sum(self.samples(self.certify))


def run_op(lib, op, res: Results, first_pass: bool, probe: SpeedProbe, ref: float,
           replays: int = REPLAYS) -> float:
    """Certify, check and replay one input, with times scaled by the machine
    speed around them (see `speed.py`); `ref` is the reference time taken
    just before, and the one taken just after is returned."""
    res.attempted += 1
    problems = []
    times = {}
    probe.open(ref)
    try:
        with deadline(DEADLINE_S):
            out = probe.timed(times, "certify", op.certify, lib)
            problems = op.check_output(out)
            cert = op.certificate(lib, out)
            replayed = [
                probe.timed(times, f"replay{i}", lib.certify.replay, op.form, op.c2, cert)
                for i in range(replays)
            ]
        problems += check_certificate(op, cert, all(replayed))
        bits = witness_bits(cert)
        if first_pass and bits is not None:
            res.bits.append(bits)
    except Exception as exc:  # a failed operation is counted, and the run goes on
        problems.append(f"{type(exc).__name__}: {exc}")
    speed, ref = probe.close()
    res.speed.append(speed)
    res.certify.setdefault(op.id, []).append(times["certify"] * speed)
    if f"replay{replays - 1}" in times:
        replay_s = min(times[f"replay{i}"] for i in range(replays))
        res.replay.setdefault(op.id, []).append(replay_s * speed)
    if problems:
        res.failures.append({"id": op.id, "pass": res.passes, "problems": problems})
    return ref


def measure(lib, ops, seconds: float, started: float, probe: SpeedProbe, tracer=None) -> list[Results]:
    """Whole passes over `ops`, so every input weighs the same in every
    metric.  Another pass starts while there were fewer than MIN_CALLS
    certify calls, or if it is expected to end within `seconds`.

    With a tracer, each round is an untraced pass and then a traced one, so
    that drift in the machine's speed reaches both alike; the results are
    [untraced, traced].  Traced calls replay once, so that the spans hold
    the work of one certify and one replay."""
    runs = [Results()] if tracer is None else [Results(), Results()]
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for traced, res in enumerate(runs):
            if traced:
                tracer.install()
            try:
                ref = probe.reference()
                for op in ops:
                    if time.perf_counter() - started > HARD_STOP_S:
                        return runs
                    if traced:
                        tracer.input_id = op.id
                    ref = run_op(lib, op, res, res.passes == 0, probe, ref, 1 if traced else REPLAYS)
            finally:
                if traced:
                    tracer.uninstall()
            res.passes += 1
        now = time.perf_counter()
        if runs[-1].calls >= MIN_CALLS and now - t0 + (now - r0) > seconds:
            return runs


# ---------------------------------------------------------------------------
# metrics


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(res: Results, setup_s: float) -> dict:
    """Percentiles are over every certify (or replay) call of the run."""
    certify = res.samples(res.certify)
    return {
        "certify_p50_ms": (statistics.median(certify) * 1e3, "ms"),
        "certify_p90_ms": (_p90(certify) * 1e3, "ms"),
        "certs_per_s": (res.certs_per_s, "1/s"),
        "replay_p50_ms": (statistics.median(res.samples(res.replay)) * 1e3, "ms"),
        "witness_bits_p50": (statistics.median(res.bits), "bits"),
        "witness_bits_p90": (_p90(res.bits), "bits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans, ops, traced: Results, untraced: Results) -> dict:
    """Per-layer figures from the traced passes; times and counts are per
    certify call (`/op`) unless the name says otherwise.  Span times are
    scaled to the reference speed by the traced calls' mean factor."""
    n = traced.calls
    to_ms = statistics.fmean(traced.speed) / 1e6
    self_ns = tracing.self_times(spans)
    busy: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0)
    for s, own in zip(spans, self_ns):
        busy[s.name] = busy.get(s.name, 0) + s.busy
        calls[s.name] = calls.get(s.name, 0) + 1
        counts[s.name] = counts.get(s.name, 0) + s.count
        layer_self[s.name.split(".")[0]] += own
    pipeline_self = sum(own for s, own in zip(spans, self_ns) if s.name == "certify.certify")

    def ms(name):
        return busy.get(name, 0) * to_ms / n

    def firsts(name):
        vals = [s.first for s in spans if s.name == name and s.first is not None]
        return statistics.fmean(vals) * to_ms if vals else 0.0

    chase_ids = {s.sid for s in spans if s.name == "cubicchase.chase"}
    directions = sum(1 for s in spans if s.name == "cubicchase.residual_on_tangent" and s.parent in chase_ids)
    edges = counts.get("cubicchase.chase", 0)
    iso_max = max((s.busy for s in spans if s.name == "quadpoints.isotropic_vector"), default=0)

    kernel = "exactmath.iter_kernel_primitives"
    top_rank = max(op.rank for op in ops)
    top_ids = {op.id for op in ops if op.rank == top_rank}
    top_kernel = sum(s.busy for s in spans if s.name == kernel and s.input_id in top_ids)
    top_certify = sum(s.busy for s in spans if s.name == "certify.certify" and s.input_id in top_ids)
    all_certify = busy.get("certify.certify", 0)
    share = lambda part, whole: 100.0 * part / whole if whole else 0.0  # noqa: E731

    out = {
        "cli.parse_ms": (ms("cli.load_input"), "ms/op"),
        "cli.render_ms": (ms("cli.render_json"), "ms/op"),
        "certify.self_ms": (pipeline_self * to_ms / n, "ms/op"),
        "certify.replay_ms": (ms("certify.replay"), "ms/op"),
        "nsring.triple_calls": (calls.get("nsring.triple", 0) / n, "count/op"),
        "nsring.triple_ms": (ms("nsring.triple"), "ms/op"),
        "exactmath.kernel_enum_ms": (ms(kernel), "ms/op"),
        "exactmath.kernel_enum_first_ms": (firsts(kernel), "ms"),
        "exactmath.kernel_enum_yielded": (counts.get(kernel, 0) / n, "count/op"),
        "exactmath.kernel_enum_share_pct": (share(busy.get(kernel, 0), all_certify), "%"),
        "exactmath.kernel_enum_share_top_rank_pct": (share(top_kernel, top_certify), "%"),
        "exactmath.primitive_enum_ms": (ms("exactmath.iter_primitive_vectors"), "ms/op"),
        "exactmath.primitive_enum_yielded": (
            counts.get("exactmath.iter_primitive_vectors", 0) / n, "count/op"),
        "exactmath.rational_roots_ms": (ms("exactmath.rational_roots"), "ms/op"),
        "cubicfactor.expand_ms": (ms("cubicfactor.expand_cubic"), "ms/op"),
        "cubicfactor.factor_ms": (ms("cubicfactor.factor_over_Q"), "ms/op"),
        "cubicfactor.factor_calls": (calls.get("cubicfactor.factor_over_Q", 0) / n, "count/op"),
        "quadpoints.is_isotropic_ms": (ms("quadpoints.is_isotropic"), "ms/op"),
        "quadpoints.isotropic_vector_ms": (ms("quadpoints.isotropic_vector"), "ms/op"),
        "quadpoints.isotropic_vector_max_ms": (iso_max * to_ms, "ms"),
        "quadpoints.sample_points_ms": (ms("quadpoints.sample_points"), "ms/op"),
        "cubicchase.chase_ms": (ms("cubicchase.chase"), "ms/op"),
        "cubicchase.chase_directions": (directions / n, "count/op"),
        "cubicchase.chase_edges": (edges / n, "count/op"),
        "cubicchase.productive_ratio": (edges / directions if directions else 0.0, "ratio"),
        "cubicchase.residual_ms": (ms("cubicchase.residual_on_tangent"), "ms/op"),
        "cubicchase.singular_point_ms": (ms("cubicchase.ternary_singular_point"), "ms/op"),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.layer_self_ms"] = (layer_self[layer] * to_ms / n, "ms/op")
    out["trace.spans"] = (len(spans) / n, "count/op")
    out["trace.certs_per_s"] = (traced.certs_per_s, "1/s")
    out["trace.untraced_certs_per_s"] = (untraced.certs_per_s, "1/s")
    out["trace.overhead_pct"] = (
        100.0 * (untraced.certs_per_s - traced.certs_per_s) / untraced.certs_per_s, "%")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "nullcone" / "__init__.py").is_file():
        print(f"error: the library source {src / 'nullcone'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _on_alarm)

    probe = SpeedProbe()
    probe.start()
    try:
        lib, ops, setup_s = setup(args.workload, args.seed, probe)
        if not Path(lib.cli.__file__).resolve().is_relative_to(src):
            print(f"error: nullcone was imported from {lib.cli.__file__}, not {src}", file=sys.stderr)
            return 2
        digest = inputs.digest([op.record for op in ops])
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} inputs, sha256 {digest}")
        tracer = tracing.Tracer() if args.trace else None
        runs = measure(lib, ops, args.seconds, started, probe, tracer)
    finally:
        probe.stop()

    res = runs[-1]
    metrics = per_layer(tracer.spans, ops, res, runs[0]) if args.trace else end_to_end(res, setup_s)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for f in failures:
        print(f"failure: {f['id']} (pass {f['pass']}): {'; '.join(f['problems'])}")
    print(f"passes {'+'.join(str(r.passes) for r in runs)}, certify calls {res.calls}, "
          f"failed {len(failures)} of {attempted} (fail_ratio {len(failures) / attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs_sha256": digest,
        "passes": [r.passes for r in runs],
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "speed_median": statistics.median(res.speed),
        "certify_ms_by_input": {k: [t * 1e3 for t in v] for k, v in res.certify.items()},
        "replay_ms_by_input": {k: [t * 1e3 for t in v] for k, v in res.replay.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_jsonl(out_dir / f"{stem}-spans.jsonl")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
