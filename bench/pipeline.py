"""Workloads, correctness checks and metrics of the desk-pipeline benchmark.

Each workload is a closed loop with one client: one CLI command after
another, in this process, each started after the previous one returned.
Inputs are generated from the seed during set-up; commands run through
``chaoscal.cli.main(argv)`` exactly as a user's would.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import chaoscal
from chaoscal import cli
from chaoscal.bases import LegendreBasis
from chaoscal.indices import index_space_dim
from chaoscal.model import ChaosModel
from chaoscal.modelio import load_model, serialize_model
from chaoscal.quotes import Quote, QuoteSurface, parse_quotes, write_quotes
from chaoscal.reference import HestonParams, heston_lewis_price
from chaoscal.vol import implied_vol

from run import HERE, ROOT, SRC
from tracer import LAYERS, Tracer

OUT = os.path.join(HERE, "out")
FIXTURE = os.path.join(HERE, "desk_model.json")
SETUP_REPS = 3

# the desk: criterion c07's Heston surface and model
DESK_HESTON = {"s0": 100.0, "kappa": 1.5, "vbar": 0.04, "eps": 0.5,
               "rho": -0.7, "v0": 0.04}
CAL_MATS = (0.3, 0.6, 1.0)
HELD_MATS = (0.45, 0.8)
MONEYNESS = (0.90, 0.95, 1.00, 1.05, 1.10)
CAL_GATE_BP = 50.0  # c07: calibrated MAE
HELD_GATE_BP = 100.0  # c07: held-out MAE
# Monte Carlo and optimizer streams that define an accuracy figure stay fixed,
# so accuracy repeats across workload seeds (see README.md)
DESK_FIT_SEED = 0  # c07's calibration seed
EVAL_SEED = 0
DESK_CONFIG = {"learning_rate": 3e-3, "max_iterations": 2000, "weight_decay": 1.0,
               "resim_every": 50, "tol": 1e-12, "patience": 10_000,
               "seed": DESK_FIT_SEED,
               "model": {"p": 2, "m": 4, "d": 2, "horizon": 1.0}}
DESK_SCHEDULE = {"default": {"kind": "mc", "n_paths": 50_000, "cv_degree": 2,
                             "beta_samples": 20_000}}
CHECK_SCHEDULE = {"default": {"kind": "mc", "n_paths": 200_000, "cv_degree": 2,
                              "beta_samples": 20_000}}
EXOTICS = [
    {"type": "forward_start", "tau": 0.5, "maturity": 1.0, "strike_ratio": 1.0},
    {"type": "down_and_out", "maturity": 1.0, "strike": 100.0, "barrier": 85.0},
    {"type": "lookback", "maturity": 1.0},
]

# quad_ref: reference engines and a quadrature-priced fit
QUAD_MATS = (0.25, 0.5, 0.75, 1.0)
ROUGH_FIT = dict(DESK_HESTON, eps=0.3, alpha=0.75)
ROUGH_DESK = dict(DESK_HESTON, alpha=0.75)  # explodes today; kept on purpose
QUAD_CONFIG = dict(DESK_CONFIG, model={"p": 3, "m": 4, "d": 1, "horizon": 1.0})
QUAD_SCHEDULE = {"default": {"kind": "quad", "n_nodes": 12}}

# legendre_paths: a seeded Legendre model, p=2, m=4, d=1 (14 coefficients).
# The base is a 20%-vol Bachelier term on the constant element with a
# negative H_2 term for skew; the seed perturbs every coefficient.
LEGENDRE_BASE = {3: 20.0, 13: -2.0}  # enumerate_indices(2, 4, 1) positions
LEGENDRE_JITTER = 0.02
LEGENDRE_SCHEDULE = {"default": {"kind": "mc", "n_paths": 20_000, "cv_degree": 1,
                                 "beta_samples": 5_000}}


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI command.  ``numeric_ok`` marks a request expected to end in a
    numeric failure (exit 3) today; it may also succeed."""

    kind: str
    argv: list
    outputs: tuple = ()
    numeric_ok: bool = False


@dataclass
class OpResult:
    op: Op
    rc: object
    wall_s: float
    stderr: str

    @property
    def ok(self):
        return self.rc == 0

    @property
    def expected(self):
        if self.ok:
            return True
        return self.op.numeric_ok and self.rc == 3 and "exploded" in self.stderr


def run_op(op):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            rc = "exception"
    return OpResult(op, rc, time.perf_counter() - t0, err.getvalue())


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        if os.path.exists(path):
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# input generation (set-up)


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)


def _heston_quotes(path, maturities):
    p = HestonParams(**DESK_HESTON)
    quotes = []
    for t in maturities:
        for m in MONEYNESS:
            k = m * p.s0
            c = heston_lewis_price(p, k, t)
            quotes.append(Quote(t, k, "C", c, implied_vol(c, p.s0, k, t), 1.0, p.s0))
    write_quotes(QuoteSurface(quotes, p.s0), path)


def legendre_model(seed):
    n = index_space_dim(2, 4, 1) - 1
    rng = np.random.default_rng(np.random.SeedSequence((seed, 4242)))
    theta = LEGENDRE_JITTER * rng.standard_normal(n)
    for pos, value in LEGENDRE_BASE.items():
        theta[pos] += value
    return ChaosModel(100.0, 2, 4, 1, LegendreBasis(1.0, 4), theta)


class Workload:
    """Inputs (``setup``), timed commands (``ops``) and checks of one workload."""

    name = None

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed

    def path(self, name):
        return os.path.join(self.work, name)

    def setup(self):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check(self, checker):
        """Run untimed check commands and record results; returns quality
        figures (cal_mae_bp and whatever else applies)."""
        raise NotImplementedError


class DeskFit(Workload):
    name = "desk_fit"

    def setup(self):
        _heston_quotes(self.path("cal.csv"), CAL_MATS)
        _heston_quotes(self.path("held.csv"), HELD_MATS)
        _write_json(self.path("config.json"), DESK_CONFIG)
        _write_json(self.path("schedule.json"), DESK_SCHEDULE)
        _write_json(self.path("check_schedule.json"), CHECK_SCHEDULE)

    def ops(self):
        return [Op("fit", ["calibrate", "--quotes", self.path("cal.csv"),
                           "--config", self.path("config.json"),
                           "--schedule", self.path("schedule.json"),
                           "--out", self.path("fitted.json"),
                           "--history", self.path("history.csv")],
                   outputs=(self.path("fitted.json"),))]

    def check(self, checker):
        out = {}
        for label, gate in (("cal", CAL_GATE_BP), ("held", HELD_GATE_BP)):
            priced = self.path(f"{label}_priced.csv")
            checker.op(Op("check", [
                "price", "--model", self.path("fitted.json"),
                "--quotes", self.path(f"{label}.csv"),
                "--schedule", self.path("check_schedule.json"),
                "--out", priced, "--seed", str(EVAL_SEED)], outputs=(priced,)))
            mae = checker.priced_mae(priced, f"{label} quotes")
            checker.expect(mae is not None and mae < gate,
                           f"c07 gate: {label} MAE {mae} bp < {gate} bp")
            out[f"{label}_mae_bp"] = mae
        return out


class DeskEval(Workload):
    name = "desk_eval"

    def setup(self):
        load_model(FIXTURE)  # the fixture must load before it is used
        shutil.copyfile(FIXTURE, self.path("model.json"))
        _heston_quotes(self.path("surface.csv"), sorted(CAL_MATS + HELD_MATS))
        _write_json(self.path("schedule.json"), CHECK_SCHEDULE)
        _write_json(self.path("contracts.json"),
                    {"monitoring_steps": 64, "contracts": EXOTICS})
        _write_json(self.path("heston.json"), DESK_HESTON)

    def ops(self):
        seed = str(self.seed)
        return [
            Op("evaluate", ["evaluate", "--model", self.path("model.json"),
                            "--quotes", self.path("surface.csv"),
                            "--schedule", self.path("schedule.json"),
                            "--report", self.path("report.json"),
                            "--seed", str(EVAL_SEED)],
               outputs=(self.path("report.json"),)),
            Op("exotics", ["exotics", "--model", self.path("model.json"),
                           "--spec", self.path("contracts.json"),
                           "--reference", self.path("heston.json"),
                           "--paths", "100000", "--out", self.path("exotics.csv"),
                           "--seed", seed],
               outputs=(self.path("exotics.csv"),)),
        ]

    def check(self, checker):
        report = checker.report(self.path("report.json"), 25)
        per_mat = report.get("per_maturity_mae_bp", {})
        for mats, gate, label in ((CAL_MATS, CAL_GATE_BP, "fitted"),
                                  (HELD_MATS, HELD_GATE_BP, "held-out")):
            errs = [per_mat.get(repr(t)) for t in mats]
            mae = float(np.mean(errs)) if None not in errs else None
            checker.expect(mae is not None and mae < gate,
                           f"c07 gate on the fixture: {label} MAE {mae} bp < {gate} bp")
        out = {"cal_mae_bp": report.get("overall_mae_bp")}
        out["exotic_se"] = checker.exotics(self.path("exotics.csv"), reference=True)
        return out


class QuadRef(Workload):
    name = "quad_ref"

    def setup(self):
        _write_json(self.path("heston.json"), DESK_HESTON)
        _write_json(self.path("rough.json"), ROUGH_FIT)
        _write_json(self.path("rough_desk.json"), ROUGH_DESK)
        _write_json(self.path("config.json"), QUAD_CONFIG)
        _write_json(self.path("schedule.json"), QUAD_SCHEDULE)

    def _surface(self, model, params, out, numeric_ok=False):
        return Op("gen_surface", [
            "gen-surface", "--model", model, "--params", self.path(params),
            "--maturities", ",".join(map(str, QUAD_MATS)),
            "--moneyness", ",".join(map(str, MONEYNESS)), "--out", self.path(out)],
            outputs=(self.path(out),), numeric_ok=numeric_ok)

    def ops(self):
        return [
            self._surface("heston", "heston.json", "heston.csv"),
            self._surface("rough-heston", "rough.json", "rough.csv"),
            self._surface("rough-heston", "rough_desk.json", "rough_desk.csv",
                          numeric_ok=True),
            Op("fit", ["calibrate", "--quotes", self.path("rough.csv"),
                       "--config", self.path("config.json"),
                       "--schedule", self.path("schedule.json"),
                       "--out", self.path("fitted.json")],
               outputs=(self.path("fitted.json"),)),
            Op("evaluate", ["evaluate", "--model", self.path("fitted.json"),
                            "--quotes", self.path("rough.csv"),
                            "--schedule", self.path("schedule.json"),
                            "--report", self.path("report.json")],
               outputs=(self.path("report.json"),)),
        ]

    def check(self, checker):
        n = len(QUAD_MATS) * len(MONEYNESS)
        for name in ("heston.csv", "rough.csv"):
            checker.surface(self.path(name), n)
        if os.path.exists(self.path("rough_desk.csv")):
            checker.surface(self.path("rough_desk.csv"), n)
        report = checker.report(self.path("report.json"), n)
        return {"cal_mae_bp": report.get("overall_mae_bp")}


class LegendrePaths(Workload):
    name = "legendre_paths"

    def setup(self):
        serialize_model(legendre_model(self.seed), self.path("model.json"))
        _heston_quotes(self.path("cal.csv"), CAL_MATS)
        _write_json(self.path("schedule.json"), LEGENDRE_SCHEDULE)
        _write_json(self.path("contracts.json"),
                    {"monitoring_steps": 16, "contracts": EXOTICS})

    def ops(self):
        seed = str(self.seed)
        return [
            Op("evaluate", ["evaluate", "--model", self.path("model.json"),
                            "--quotes", self.path("cal.csv"),
                            "--schedule", self.path("schedule.json"),
                            "--report", self.path("report.json"), "--seed", seed],
               outputs=(self.path("report.json"),)),
            Op("exotics", ["exotics", "--model", self.path("model.json"),
                           "--spec", self.path("contracts.json"),
                           "--paths", "20000", "--out", self.path("exotics.csv"),
                           "--seed", seed],
               outputs=(self.path("exotics.csv"),)),
        ]

    def check(self, checker):
        report = checker.report(self.path("report.json"), 15)
        return {"cal_mae_bp": report.get("overall_mae_bp"),
                "exotic_se": checker.exotics(self.path("exotics.csv"), reference=False)}


WORKLOADS = {w.name: w for w in (DeskFit, DeskEval, QuadRef, LegendrePaths)}


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Collects check results and the untimed check commands."""

    def __init__(self):
        self.results = []  # (ok, description)
        self.op_results = []

    def expect(self, ok, what):
        self.results.append((bool(ok), what))

    def op(self, op):
        res = run_op(op)
        self.op_results.append(res)
        self.expect(res.ok, f"exit 0 from check command {op.argv[0]} (got {res.rc})")

    def priced_mae(self, path, what):
        """Implied-vol MAE of a `price` output; checks bounds and inversions."""
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        except OSError:
            self.expect(False, f"{what}: priced file {path} readable")
            return None
        in_bounds = all(
            max(float(r["forward"]) - float(r["strike"]), 0.0) * float(r["discount_factor"])
            <= float(r["model_price"])
            <= float(r["forward"]) * float(r["discount_factor"])
            for r in rows
        )
        self.expect(rows and in_bounds, f"{what}: model prices within no-arbitrage bounds")
        found = all(r["model_implied_vol"] for r in rows)
        self.expect(rows and found, f"{what}: every model implied vol found")
        if not rows or not found:
            return None
        return float(np.mean([float(r["abs_error_bp"]) for r in rows]))

    def report(self, path, n_quotes):
        try:
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            self.expect(False, f"evaluate report {path} readable")
            return {}
        self.expect(report.get("n_quotes") == n_quotes,
                    f"evaluate priced {n_quotes} quotes (got {report.get('n_quotes')})")
        self.expect(report.get("n_inversion_failures") == 0,
                    "every model implied vol found (prices within no-arbitrage bounds)")
        mae = report.get("overall_mae_bp")
        self.expect(mae is not None and math.isfinite(mae) and mae > 0,
                    f"finite implied-vol MAE (got {mae})")
        return report

    def surface(self, path, n_quotes):
        # parse_quotes enforces the static no-arbitrage bounds on every row
        try:
            quotes = parse_quotes(path).quotes
        except (OSError, chaoscal.ChaoscalError) as exc:
            self.expect(False, f"{os.path.basename(path)} parses: {exc}")
            return
        self.expect(len(quotes) == n_quotes and all(q.implied_vol > 0 for q in quotes),
                    f"{os.path.basename(path)}: {n_quotes} quotes with implied vols")

    def exotics(self, path, reference):
        """Largest model standard error; checks every SE is finite and > 0."""
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        except OSError:
            self.expect(False, f"exotics output {path} readable")
            return None
        cols = ("model_se", "ref_se") if reference else ("model_se",)
        ses = [float(r[c]) if r[c] else math.nan for r in rows for c in cols]
        self.expect(len(rows) == len(EXOTICS) and all(math.isfinite(s) and s > 0 for s in ses),
                    f"exotic standard errors finite and > 0 ({ses})")
        prices = [float(r["model_price"]) for r in rows]
        self.expect(all(math.isfinite(p) and p >= 0 for p in prices),
                    f"exotic model prices finite and >= 0 ({prices})")
        return max((float(r["model_se"]) for r in rows), default=None)

    @property
    def failed(self):
        return [what for ok, what in self.results if not ok]


# ---------------------------------------------------------------------------
# environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_active_threads():
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(threads, inherited):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_active": _blas_active_threads(),
        "blas_threads_inherited": inherited,
    }


def source_digest():
    """Digest of the chaoscal sources and of this benchmark: output digests are
    compared only between runs of the same program on the same inputs."""
    pkg = os.path.join(SRC, "chaoscal")
    files = [os.path.join(pkg, n) for n in sorted(os.listdir(pkg)) if n.endswith(".py")]
    files += [os.path.join(HERE, n) for n in sorted(os.listdir(HERE))
              if n.endswith((".py", ".json"))]
    return file_digest(files)[:16]


def check_digest(checker, key, digest):
    """Outputs at one (workload, seed, BLAS threads, sources) must repeat exactly."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    prior = known.setdefault(key, digest)
    checker.expect(prior == digest, f"output digest {digest[:12]} repeats earlier "
                                    f"run's {prior[:12]} at {key}")
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# the run


def _time_import():
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import chaoscal.cli"], env=env, check=True)
    return time.perf_counter() - t0


def setup_inputs(cls, work, seed):
    """Set up SETUP_REPS times; returns (the ready workload, median set-up s).

    One set-up is a fresh interpreter importing the CLI plus generating the
    inputs (and loading the fixture) here; the last one is kept.
    """
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t_import = _time_import()
        t0 = time.perf_counter()
        wl = cls(work, seed)
        wl.setup()
        times.append(t_import + time.perf_counter() - t0)
    return wl, statistics.median(times)


@dataclass
class Pass:
    results: list
    digest: str
    wall_s: float = field(init=False)

    def __post_init__(self):
        self.wall_s = sum(r.wall_s for r in self.results)

    def time_of(self, kind):
        return sum(r.wall_s for r in self.results if r.op.kind == kind)


def run_pass(wl):
    results = [run_op(op) for op in wl.ops()]
    outputs = [p for r in results for p in r.op.outputs]
    return Pass(results, file_digest(outputs))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(tracer, traced, untraced):
    stats = tracer.stats
    out = {}
    for modname, names in LAYERS.items():
        for fname in names:
            layer = f"{modname.rsplit('.', 1)[1]}.{fname}"
            out[f"{layer}.self_s"] = stats[layer].self_s
            out[f"{layer}.calls"] = stats[layer].calls

    def ratio(num, den):
        return num / den if den else 0.0

    cv = stats["pricing.estimate_cv"]
    out["pricing.estimate_cv.useful_ratio"] = ratio(len(cv.keys), cv.calls)
    quad = stats["pricing.quad_nodes_features"]
    out["pricing.quad_nodes_features.rows"] = quad.counters.get("rows", 0)
    out["pricing.quad_nodes_features.useful_ratio"] = ratio(len(quad.keys), quad.calls)
    sf = stats["model.sample_features"]
    out["model.sample_features.paths"] = sf.counters.get("paths", 0)
    out["model.sample_features.live_col_ratio"] = ratio(sf.counters.get("live_cols", 0),
                                                        sf.counters.get("cols", 0))
    out["conditional.piecewise_features.cells"] = \
        stats["conditional.piecewise_features"].counters.get("cells", 0)
    out["bases.sample_integrals.out_mb"] = \
        stats["bases.sample_integrals"].counters.get("out_bytes", 0) / 1e6
    out["vol.implied_vol.failures"] = stats["vol.implied_vol"].counters.get("failures", 0)
    for kind in ("fit", "evaluate", "exotics", "gen_surface"):
        out[f"trace.{kind}_s"] = traced.time_of(kind)
    out["trace.wall_s"] = traced.wall_s
    out["trace.unattributed_s"] = traced.wall_s - sum(st.self_s for st in stats.values())
    out["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return out


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args, threads, inherited):
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.abspath(chaoscal.__file__).startswith(SRC + os.sep):
        print(f"error: chaoscal imported from {chaoscal.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    work = os.path.join(OUT, f"work_{tag}_{os.getpid()}")
    try:
        return _run(args, threads, inherited, end_to_end, per_layer, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, threads, inherited, end_to_end, per_layer, tag, work):
    wl, setup_s = setup_inputs(WORKLOADS[args.workload], work, args.seed)

    tracer = None
    passes = []
    begin = time.perf_counter()
    if args.trace:
        # one untraced pass, then one traced pass: their difference is the
        # tracing overhead
        passes.append(run_pass(wl))
        tracer = Tracer()
        tracer.install()
        tracer.active, tracer.run_id = True, "traced"
        try:
            passes.append(run_pass(wl))
        finally:
            tracer.active = False
            tracer.uninstall()
    else:
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append(run_pass(wl))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = Checker()
    for p in passes:
        for r in p.results:
            checker.expect(r.expected, f"{r.op.argv[0]} ends as expected (exit {r.rc}"
                                       f"{': ' + r.stderr.strip() if r.stderr.strip() else ''})")
    checker.expect(len({p.digest for p in passes}) == 1,
                   "every pass produced identical outputs")
    quality = wl.check(checker)
    ops = [r for p in passes for r in p.results] + checker.op_results
    check_outputs = [o for r in checker.op_results for o in r.op.outputs]
    run_digest = hashlib.sha256(
        (passes[0].digest + file_digest(check_outputs)).encode()).hexdigest()
    check_digest(checker, f"{args.workload}|seed={args.seed}|blas={threads}|"
                          f"src={source_digest()}", run_digest)

    n_ok = sum(r.ok for r in ops)
    timed = passes[:1] if args.trace else passes  # the traced pass is not timed
    values = {
        "setup_s": setup_s,
        "wall_s": _median(p.wall_s for p in timed),
        "peak_rss_mb": peak_rss_mb,
        "cal_mae_bp": quality.get("cal_mae_bp"),
        "ok_ratio": n_ok / len(ops),
    }
    # figures that apply to some workloads only: text lines and the result file
    figures = {
        "fit_s": _median(p.time_of("fit") or None for p in timed),
        "evaluate_s": _median(p.time_of("evaluate") or None for p in timed),
        "exotics_s": _median(p.time_of("exotics") or None for p in timed),
        "gen_surface_s": _median(p.time_of("gen_surface") or None for p in timed),
        "held_mae_bp": quality.get("held_mae_bp"),
        "exotic_se": quality.get("exotic_se"),
        "fail_ratio": 1.0 - n_ok / len(ops),
    }
    units = {"fit_s": "s", "evaluate_s": "s", "exotics_s": "s", "gen_surface_s": "s",
             "held_mae_bp": "bp", "exotic_se": "price", "fail_ratio": "ratio"}

    if args.trace:
        layers = layer_metrics(tracer, passes[1], passes[0])
        metrics = {name: {"value": layers.get(name), "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in end_to_end.items()}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    for what in missing:
        checker.expect(False, f"metric {what} measured")
    failed = checker.failed

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(threads, inherited),
        "peak_rss_mb": peak_rss_mb, "setup_s": setup_s,
        "passes": [{"wall_s": p.wall_s, "digest": p.digest,
                    "commands": [{"command": r.op.argv[0], "kind": r.op.kind,
                                  "rc": r.rc, "wall_s": r.wall_s} for r in p.results]}
                   for p in passes],
        "end_to_end": values, "figures": figures, "run_digest": run_digest,
        "checks": [{"ok": ok, "check": what} for ok, what in checker.results],
    }
    if tracer is not None:
        record["per_layer"] = layers
        tracer.dump(os.path.join(OUT, f"TRACE_{tag}.json"),
                    {"workload": args.workload, "seed": args.seed})
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for name, value in values.items():
        print(f"{name} = {value!r} {end_to_end.get(name, '')}")
    for name, value in figures.items():
        if value is not None:
            print(f"{name} = {value!r} {units[name]}")
    if tracer is not None:
        for name, value in layers.items():
            print(f"{name} = {value!r} {per_layer.get(name, '')}")
    print(f"run digest {run_digest}")
    for what in failed:
        print(f"FAILED CHECK: {what}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checker.results),  # one per command's exit, one per check
        "failed": len(failed),
        "metrics": {k: v for k, v in metrics.items() if v["value"] is not None},
    }))
    return 0


def write_fixture():
    """Re-create the desk_eval fixture from a desk_fit calibration."""
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work_fixture_{os.getpid()}")
    os.makedirs(work)
    try:
        wl = DeskFit(work, DESK_FIT_SEED)
        wl.setup()
        (res,) = [run_op(op) for op in wl.ops()]
        if not res.ok:
            print(f"error: calibrate exited {res.rc}: {res.stderr}", file=sys.stderr)
            return 1
        shutil.copyfile(wl.path("fitted.json"), FIXTURE)
        print(f"wrote {FIXTURE}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
