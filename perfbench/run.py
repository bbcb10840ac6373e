"""Run one benchmark workload against the gptsteer sources of this checkout.

    python3 perfbench/run.py --workload norms --seed 0 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists): `norms`, `order` and
`steer` ask the library in process; `cli` runs one `python -m gptsteer.cli`
child at a time.  Each is a closed loop with one client.  Inputs are drawn
from --seed at set-up; only answering is timed, and every answer is checked
outside the timed region (invariants, repeat agreement, and for seed 0 the
recorded answers in perfbench/reference.json or the cli expected files).

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json under --trace 0
and the per-layer ones under --trace 1.  The line before it is a stamp
describing the machine, versions and question counts; failed checks are
listed on stderr.  --trace 1 measures a
third of --seconds untraced and the rest with every layer wrapped, and
reports the traced figures plus the tracing overhead.

Times are reported at a reference machine speed (perfbench/speed.py says
how and why); the stamp keeps the unscaled ones.  `setup_s` is the import
time plus the median of SETUP_REPEATS set-ups (build the inputs, answer one
warm-up case).
"""

import time

_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import cases as cs  # noqa: E402
from perfbench import cli_workload  # noqa: E402

WORKLOADS = ("norms", "order", "steer", "cli")
SETUP_REPEATS = 3   # set-up runs per run; setup_s takes their median
SETUP_KERNELS = 5   # calibration kernels timed after each in-process set-up
IMPORT_PROBES = 5   # `import gptsteer` children timed by the traced cli run
REFERENCE = Path("perfbench") / "reference.json"
REFERENCE_SEED = 0  # the seed whose answers reference.json records


def require_sources(root=ROOT):
    """Exit unless the checkout holds the gptsteer sources."""
    if not (root / "src" / "gptsteer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gptsteer sources under {root / 'src'}")


def import_library(root=ROOT):
    """Import gptsteer from this checkout's src/, never from elsewhere."""
    require_sources(root)
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gptsteer

    if Path(gptsteer.__file__).resolve().parent != (src / "gptsteer").resolve():
        raise SystemExit(f"perfbench: gptsteer imported from {gptsteer.__file__}")
    return gptsteer


def quantile_ms(seconds, q):
    """Percentile q (0-100) in milliseconds, inclusive interpolation."""
    if len(seconds) < 2:
        return 1e3 * seconds[0]
    cuts = statistics.quantiles(seconds, n=100, method="inclusive")
    return 1e3 * cuts[q - 1]


def load_reference(workload, seed, root=ROOT):
    if seed != REFERENCE_SEED:
        return None
    with open(root / REFERENCE) as fh:
        return json.load(fh)[workload]


def _warm_up(cases, tally):
    for case in cases:
        cs.judge(case, cs.answer_case(case, tally), tally)


def end_to_end(latencies, setup_s, peak_kb):
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": quantile_ms(latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def overhead(untraced, traced):
    """Traced over untraced answering time on the cases both phases ran."""
    n = min(len(untraced.case_times), len(traced.case_times))
    return sum(traced.case_times[:n]) / sum(untraced.case_times[:n])


def run_library(args, root=ROOT, reference=None):
    """The in-process workloads; returns (tallies, values, stamp notes)."""
    import_library(root)
    from perfbench import speed
    from perfbench import tracer as tr
    from perfbench import workloads

    import_s = time.perf_counter() - _START
    build = workloads.BUILDERS[args.workload]
    cycle = workloads.CYCLES.get(args.workload)
    warm = cs.Tally()
    setups, kernels = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sequence = build(args.seed)
        _warm_up(build(args.seed + 2**32, 1), warm)
        setups.append(time.perf_counter() - start)
        kernels += [speed.time_kernel() for _ in range(SETUP_KERNELS)]
    setup_s = import_s + statistics.median(setups)
    notes = {"sequence_cases": len(sequence), "cycle_cases": cycle,
             "setup_runs_s": [import_s + t for t in setups]}

    first = {}
    if not args.trace:
        tally = cs.Tally()
        cs.measure(sequence, args.seconds, tally, reference, first,
                   cycle=cycle, calibrate=speed.time_kernel)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = end_to_end(
            cs.at_reference_speed(tally, speed.REFERENCE_S),
            setup_s * speed.REFERENCE_S / statistics.median(kernels), peak)
        notes["unscaled"] = end_to_end(tally.latencies, setup_s, peak)
        notes["calibration_ms"] = {
            "setup": 1e3 * statistics.median(kernels),
            "timed": 1e3 * statistics.median(tally.calibration_times)}
        return [warm, tally], values, notes

    plain = cs.Tally()
    cs.measure(sequence, args.seconds / 3, plain, reference, first,
               cycle=cycle)
    tracer = tr.Tracer()
    traced = cs.Tally()
    with tracer.installed():
        cs.measure(sequence, 2 * args.seconds / 3, traced, reference, first,
                   cycle=cycle, question_span=tracer.question)
    values = tracer.metrics()
    values["trace.overhead"] = overhead(plain, traced)
    values.update({"cli.process_ms": 0.0, "cli.import_ms": 0.0,
                   "cli.inproc_ms": 0.0})
    return [warm, plain, traced], values, notes


def run_cli(args, root=ROOT, expected_dir=None):
    """The `cli` workload; returns (tallies, values, stamp notes)."""
    require_sources(root)
    import_s = time.perf_counter() - _START
    cycle = len(cli_workload.INVOCATIONS)
    warm = cs.Tally()
    setups, references = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        expected = cli_workload.load_expected(root, expected_dir)
        sequence = cli_workload.cases(root, args.seed, expected)
        _warm_up(sequence[-1:], warm)
        setups.append(time.perf_counter() - start)
        references.append(cli_workload.reference_child(root))
    setup_s = import_s + statistics.median(setups)
    notes = {"sequence_cases": len(sequence), "cycle_cases": cycle,
             "setup_runs_s": [import_s + t for t in setups]}

    if not args.trace:
        tally = cs.Tally()
        reference_child = functools.partial(cli_workload.reference_child, root)
        cs.measure(sequence, args.seconds, tally, cycle=cycle,
                   calibrate=reference_child)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = end_to_end(
            cs.at_reference_speed(tally, cli_workload.REFERENCE_S),
            setup_s * cli_workload.REFERENCE_S / statistics.median(references),
            peak)
        notes["unscaled"] = end_to_end(tally.latencies, setup_s, peak)
        notes["calibration_ms"] = {
            "setup": 1e3 * statistics.median(references),
            "timed": 1e3 * statistics.median(tally.calibration_times)}
        return [warm, tally], values, notes

    process = cs.Tally()
    cs.measure(sequence, args.seconds / 3, process, cycle=cycle)
    imports = [cli_workload.import_probe(root) for _ in range(IMPORT_PROBES)]

    import_library(root)
    from perfbench import tracer as tr

    inproc = cli_workload.cases(root, args.seed, expected,
                                runner=cli_workload.run_inproc)
    _warm_up(inproc[-1:], warm)
    plain = cs.Tally()
    cs.measure(inproc, args.seconds / 6, plain, cycle=cycle)
    tracer = tr.Tracer()
    traced = cs.Tally()
    with tracer.installed():
        cs.measure(inproc, args.seconds / 3, traced, cycle=cycle,
                   question_span=tracer.question)
    values = tracer.metrics()
    values.update({
        "trace.overhead": overhead(plain, traced),
        "cli.process_ms": 1e3 * statistics.median(process.latencies),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.inproc_ms": 1e3 * statistics.median(plain.latencies),
    })
    return [warm, process, plain, traced], values, notes


def _src_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def stamp(args, tallies, notes, root=ROOT):
    """What two result files must share to be compared."""
    from importlib import metadata

    import numpy

    import_library(root)
    from gptsteer import backend

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    timed = tallies[1:]   # the first tally is the warm-up
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    kinds = {}
    for t in timed:
        for kind, n in t.kinds.items():
            kinds[kind] = kinds.get(kind, 0) + n
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": version("scipy"),
        "use_numba": bool(backend.USE_NUMBA),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(root), "src_sha256": _src_digest(root),
        "reference_checked": args.seed == REFERENCE_SEED,
        "questions": {
            "attempted": attempted, "failed": failed,
            "failure_rate": failed / attempted if attempted else None,
            "latency_samples": [len(t.latencies) for t in timed],
            "answering_s": [t.busy for t in timed],
            "cases_by_kind": dict(sorted(kinds.items())),
        },
        **notes,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, root=ROOT):
    args = parse_args(argv)
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload == "cli":
        tallies, values, notes = run_cli(args, root)
    else:
        tallies, values, notes = run_library(
            args, root, load_reference(args.workload, args.seed, root))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    info = stamp(args, tallies, notes, root)
    counts = info["questions"]
    result = {"correct": counts["failed"] == 0,
              "attempted": counts["attempted"], "failed": counts["failed"],
              "metrics": metrics}
    problems = [p for t in tallies for p in t.problems]
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
