#!/usr/bin/env python3
"""bfmix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload case2-witness --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, so nothing needs installing.  One process, one thread,
one sequential client: a closed loop in which the next parameter point
starts when the previous one has finished and been checked.  Each point is
timed around its call into bfmix (``cli.main`` for ``analyze``, plus the
float oracles on ``ode-crosscheck``); its outputs are checked after the timed
region.  The loop stops at the first cycle boundary after ``--seconds``.

The time metrics are corrected for the host's speed, which on a shared
machine drifts by tens of percent over seconds.  Before and after every
timed point the benchmark times a fixed calibration kernel with the
program's mix of work, exact rational arithmetic and small numpy float
arrays; the point's wall and CPU times are multiplied by ``CAL_NOMINAL_S``
over the mean of the two calibrations around it.  Each set-up sample is
corrected the same way by a calibration right after it.  The times
therefore read as times on a host where the kernel takes
``CAL_NOMINAL_S``.  The uncorrected values are printed as ``raw.*`` and
kept in the result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
list of points (the references and the first ``TRACE_CYCLES`` cycles, so
counts repeat exactly at one seed), each point once untraced and once
traced in alternating order, and reports the per-layer metrics and the
tracing overhead.

The last line of standard output is one JSON object; a fuller record,
with every point, goes to ``.bench_results/`` in the checkout.
"""
import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

#: set-up samples per run, each in a fresh interpreter; the median is
#: reported
SETUP_SAMPLES = 9

#: repetitions of the calibration kernel, about 10 ms in all, around each
#: point, and after each set-up sample, where one reading has to do
CAL_REPS = 5
SETUP_CAL_REPS = 20

#: calibration time the corrected metrics are scaled to, about the
#: kernel's median time on a 2-vCPU Xeon VM at the benchmark's first commit
CAL_NOMINAL_S = 0.002

#: seeded cycles in the traced run's fixed list; about 8 s of untraced
#: work per pass on a 2-core Xeon at the benchmark's first commit
TRACE_CYCLES = {"case2-witness": 2, "case2-survivors": 2,
                "case3-splitting": 16, "ode-crosscheck": 80}

#: percentile reported as ``point_tail_ms``: fixed, so that a change that
#: fits more points into a run reads the same quantile as its parent
TAIL_PERCENTILE = 90

END_TO_END = {"points_per_s": "1/s", "point_p50_ms": "ms",
              "point_tail_ms": "ms", "cpu_ms_per_point": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


class NoProgram(Exception):
    """The checkout holds no bfmix sources to benchmark."""


def setup(workload: str, seed: int):
    """What a CLI user pays before the first point: import ``bfmix.cli``,
    build its parser, generate the inputs.  Returns (seconds, bfmix module,
    workloads module, references, cycles)."""
    t0 = time.perf_counter()
    if not (SRC / "bfmix" / "__init__.py").is_file():
        raise NoProgram(f"no bfmix sources under {SRC}")
    # one thread: pin the BLAS and OpenMP pools before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    bfmix = importlib.import_module("bfmix")
    importlib.import_module("bfmix.cli")
    if Path(bfmix.__file__).resolve().parent != SRC / "bfmix":
        raise NoProgram(f"bfmix imported from {bfmix.__file__}, not {SRC}")
    workloads = importlib.import_module("workloads")
    bfmix.cli.build_parser()
    refs, cycles = workloads.generate(workload, seed)
    return time.perf_counter() - t0, bfmix, workloads, refs, cycles


def calibration_s(reps=CAL_REPS):
    """Mean time of a fixed kernel over ``reps`` runs: the host's current
    speed.  The kernel grows a rational with large numerators and
    denominators, as the series kernel does, and sums small complex numpy
    arrays, as the contour quadrature does."""
    import numpy
    x = numpy.linspace(0.0, 1.0, 512)
    t0 = time.perf_counter()
    for _ in range(reps):
        acc = Fraction(0)
        for i in range(1, 90):
            acc += Fraction(i + 1, i * i + 3) * acc + Fraction(1, i)
        for k in range(40):
            numpy.exp(1j * k * x).sum() / (1 + x).sum()
    return (time.perf_counter() - t0) / reps


def timed_point(point, bfmix, workloads):
    """(latency s, cpu s, problems) for one point."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = workloads.run_point(point, bfmix)
    except Exception:   # a failing point is counted, the run goes on
        result = None
        problems = ["raised: " + traceback.format_exc(limit=3)]
    t1 = time.perf_counter()
    c1 = time.process_time()
    if result is not None:
        problems = workloads.check_point(point, result)
    return t1 - t0, c1 - c0, problems


def point_record(index, point, latency, cpu, problems, **extra):
    return dict({"index": index, "family": point["family"], "ref": point["ref"],
                 "argv": point["argv"], "latency_ms": latency * 1e3,
                 "cpu_ms": cpu * 1e3, "ok": not problems,
                 "problems": problems}, **extra)


def run_untraced(workload, seconds, bfmix, workloads, refs, cycles):
    records = []
    start = time.perf_counter()
    batch, k = refs, 0
    cal_before = calibration_s()
    while True:
        # the references, then whole cycles: the mix is the same every run
        for point in batch:
            latency, cpu, problems = timed_point(point, bfmix, workloads)
            cal_after = calibration_s()
            scale = 2 * CAL_NOMINAL_S / (cal_before + cal_after)
            records.append(point_record(len(records), point, latency, cpu,
                                        problems, host_scale=scale))
            cal_before = cal_after
        if time.perf_counter() - start >= seconds:
            return records
        batch, k = cycles[k % len(cycles)], k + 1


def tail(latencies):
    """(value, samples above it): the TAIL_PERCENTILE percentile,
    interpolated between the samples on either side of it."""
    if len(latencies) < 2:
        value = latencies[0]
    else:
        value = statistics.quantiles(latencies, n=100,
                                     method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in latencies if x > value)


def end_to_end(records, setup_samples, corrected):
    """The end-to-end values, with each point's and each set-up sample's
    times scaled by its host-speed factor when ``corrected``."""
    def scale(r):
        return r["host_scale"] if corrected else 1.0
    ok = [r for r in records if r["ok"]]
    lat = [r["latency_ms"] * scale(r) for r in ok] or [float("nan")]
    tail_ms, tail_beyond = tail(lat)
    timed_s = sum(r["latency_ms"] * scale(r) for r in records) / 1e3
    cpu_ms = sum(r["cpu_ms"] * scale(r) for r in records)
    return {
        "points_per_s": len(ok) / timed_s,
        "point_p50_ms": statistics.median(lat),
        "point_tail_ms": tail_ms,
        "cpu_ms_per_point": cpu_ms / len(records),
        "setup_s": statistics.median(t * (f if corrected else 1.0)
                                     for t, f in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"samples": len(ok), "tail_percentile": TAIL_PERCENTILE,
        "tail_beyond": tail_beyond, "timed_s": timed_s}


def run_traced(workload, bfmix, workloads, refs, cycles):
    trace = importlib.import_module("trace_layers")
    tracer = trace.Tracer(bfmix)
    points = refs + [p for cyc in cycles[:TRACE_CYCLES[workload]] for p in cyc]
    records = []
    wall = {False: 0.0, True: 0.0}
    for i, point in enumerate(points):
        runs = {}
        # alternate which pass goes first so neither always runs cold
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.point_id = i
                tracer.install()
            try:
                runs[traced] = timed_point(point, bfmix, workloads)
            finally:
                tracer.uninstall()
            wall[traced] += runs[traced][0]
        problems = runs[False][2] + runs[True][2]
        records.append(point_record(i, point, runs[False][0], runs[False][1],
                                    problems, traced_ms=runs[True][0] * 1e3))
    values = tracer.metrics()
    values["trace_overhead_frac"] = wall[True] / wall[False] - 1
    metrics = {k: {"value": float(values[k]), "unit": trace.PER_LAYER[k][0]}
               for k in trace.PER_LAYER}
    extra = {"points": len(points), "untraced_s": wall[False],
             "traced_s": wall[True], "spans": len(tracer.start),
             "exact_counts": list(trace.EXACT_COUNTS),
             "predictions": trace.PREDICTIONS}
    return records, metrics, extra, tracer


def setup_probe_samples(workload, seed, count):
    """(set-up seconds, host-speed factor) of ``count`` fresh interpreters;
    each measures its factor with the calibration kernel right after its
    set-up."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        setup_s, cal_s = map(float, proc.stdout.split()[-2:])
        out.append((setup_s, CAL_NOMINAL_S / cal_s))
    return out


def environment(bfmix):
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bfmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "bfmix": bfmix.__version__,
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # workloads.WORKLOADS, spelled out: importing workloads loads numpy,
    # which belongs inside the timed set-up
    ap.add_argument("--workload", required=True, choices=(
        "case2-witness", "case2-survivors", "case3-splitting", "ode-crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print the seconds")
    args = ap.parse_args(argv)
    try:
        setup_s, bfmix, workloads, refs, cycles = setup(args.workload, args.seed)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s), repr(calibration_s(SETUP_CAL_REPS)))
        return 0

    if args.trace:
        records, metrics, extra, tracer = run_traced(
            args.workload, bfmix, workloads, refs, cycles)
    else:
        records = run_untraced(args.workload, args.seconds, bfmix, workloads,
                               refs, cycles)
        samples = setup_probe_samples(args.workload, args.seed, SETUP_SAMPLES)
        values, extra = end_to_end(records, samples, corrected=True)
        extra["raw"], _ = end_to_end(records, samples, corrected=False)
        extra["setup_samples_s"] = samples
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    failed = sum(1 for r in records if not r["ok"])
    extra["failed_frac"] = failed / len(records)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        extra["spans_file"] = f"{stem}.spans.csv"
        tracer.write_spans(RESULTS / extra["spans_file"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "why": workloads.WHY[args.workload],
              "environment": environment(bfmix),
              "metrics": metrics, "summary": extra, "points": records}
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for r in records:
        if not r["ok"]:
            print(f"FAILED point {r['index']} {r['argv']}: {r['problems']}")
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:34s} {m['value']:14.6g} {m['unit']}")
    for name, value in extra.get("raw", {}).items():
        print(f"{args.workload:16s} {'raw.' + name:34s} {value:14.6g} "
              f"{END_TO_END[name]}")
    for name in ("samples", "tail_percentile", "tail_beyond", "failed_frac",
                 "points", "untraced_s", "traced_s", "spans"):
        if name in extra:
            print(f"{args.workload:16s} {name:34s} {extra[name]:14.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
