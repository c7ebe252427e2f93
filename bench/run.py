"""groupfx benchmark: closed-loop CLI workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_gmm_bias --seed 1 --seconds 30 --trace 0

One op is one or two ``groupfx.cli.main`` calls on generated config files
(see ``workloads.py``); each op starts after the previous one returns, in
this one process. Op i of a run uses seed ``--seed + i``; op 0 is a warm-up
that is checked but not timed. Ops repeat until their summed wall time
reaches ``--seconds``. After each op the set-up (a fresh import of groupfx
and writing the configs) is timed once more, outside the timed ops, so the
median set-up time samples the same stretch of machine time as the ops.
A fixed reference job (``calibrate.py``) runs after every op and gauges the
machine's speed at that moment; the end-to-end times are reported at the
reference speed, each op and set-up scaled by the reference jobs on either
side of it, because this shared machine drifts in speed by more than a
program change moves the times.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` ops alternate between traced and
untraced, and it carries the per-layer metrics of the traced ops plus the
tracing overhead. Earlier lines record the environment, the per-op result
digests and the run-level checks. All files go to a private directory under
``.bench_tmp/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import jsonschema  # noqa: E402

from calibrate import REFERENCE_S, reference_job  # noqa: E402
from tracer import Tracer, package_modules, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, op_digest  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank: percentile p is the sample of rank ceil(p n / 100). With
    ten samples or fewer no percentile qualifies, and the maximum is returned
    as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = 100 * (n - 10) // n
    return p, xs[max(1, math.ceil(p * n / 100)) - 1]


def at_reference_speed(seconds: float, job_before: float, job_after: float) -> float:
    """``seconds`` scaled to the speed at which the reference job takes REFERENCE_S.

    ``job_before`` and ``job_after`` are the reference job's times just
    before and just after the interval measured.
    """
    return seconds * REFERENCE_S / ((job_before + job_after) / 2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, tmp: str):
    """Import groupfx afresh and write the workload's configs.

    Returns the ``groupfx.cli`` module and the seconds this took.
    """
    start = time.perf_counter()
    for name in package_modules():
        del sys.modules[name]
    cli = importlib.import_module("groupfx.cli")
    workload.write_configs(tmp)
    return cli, time.perf_counter() - start


def repeat_set_up(workload, tmp: str) -> float:
    """Time one more set-up, then put back the modules the ops are using."""
    running = package_modules()
    _, seconds = set_up(workload, tmp)
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(running)
    gc.collect()  # free the discarded copy now rather than during an op
    return seconds


class Run:
    """State of one benchmark run: op timings, result digests and check outcomes."""

    def __init__(self, workload, tmp: str, validator):
        self.workload = workload
        self.tmp = tmp
        self.validator = validator
        self.durations: dict[bool, list[float]] = {False: [], True: []}
        self.digests: list[str] = []
        self.reports: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def op(self, cli, seed: int, index: int, tracer=None) -> float:
        for path in self.workload.outputs(self.tmp):
            if os.path.exists(path):
                os.remove(path)
        if tracer is not None:
            tracer.op = index
            tracer.install()
        start = time.perf_counter()
        try:
            codes = self.workload.run_op(cli, self.tmp, seed)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        errors, numbers, report = self.workload.check_op(self.tmp, seed, codes, self.validator)
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"op {index} (seed {seed}) failed: {'; '.join(errors)}", file=sys.stderr)
        self.digests.append(op_digest(numbers)[:16])
        if report is not None:
            self.reports.append(report)
        return elapsed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", default=None, metavar="PATH",
        help="with --trace 1, also write every span as a JSON line to PATH",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally that removes the temp dir


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupfx", "__init__.py")):
        print(f"error: no groupfx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    with open(os.path.join(SRC, "groupfx", "report_schema.json"), encoding="utf-8") as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    tmp_parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    try:
        cli, first_setup = set_up(workload, tmp)
        run = Run(workload, tmp, validator)
        run.op(cli, args.seed, 0)  # warm-up: checked, not timed
        reference_job()  # warm-up
        # counting timed ops from 0, op k runs between jobs[k] and jobs[k + 1],
        # and the set-up repeated after it between jobs[k + 1] and jobs[k + 2]
        jobs = [reference_job()]
        setups = []
        first_timed_op = time.perf_counter() - _PROCESS_START
        tracer = Tracer() if args.trace else None
        timed = 0.0
        index = 1
        while timed < args.seconds or (tracer is not None and not run.durations[False]):
            traced = tracer is not None and index % 2 == 1
            elapsed = run.op(cli, args.seed + index, index, tracer if traced else None)
            jobs.append(reference_job())
            run.durations[traced].append(at_reference_speed(elapsed, jobs[-2], jobs[-1]))
            timed += elapsed
            index += 1
            setups.append(repeat_set_up(workload, tmp))
        jobs.append(reference_job())
        setups = [at_reference_speed(s, jobs[k + 1], jobs[k + 2]) for k, s in enumerate(setups)]
        run_errors = workload.check_run(run.reports)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run still uses it

    all_ops = hashlib.sha256("".join(run.digests).encode()).hexdigest()
    print("digest " + json.dumps({"ops": len(run.digests), "sha256": all_ops,
                                  "per_op": run.digests}))
    for err in run_errors:
        print(f"run check failed: {err}", file=sys.stderr)

    untraced = run.durations[False]
    if tracer is None:
        p, tail = tail_percentile(untraced)
        print(f"ops {len(untraced)} timed; op_s_tail is p{p}; "
              f"{len(setups)} set-ups; "
              f"process start to first timed op {first_timed_op:.3f} s")
        print(f"speed: reference job median {statistics.median(jobs):.4f} s over {len(jobs)} runs, "
              f"{REFERENCE_S} s at the reference speed; unscaled {timed:.3f} s over timed ops, "
              f"first set-up {first_setup:.3f} s")
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "op_s_p50": (statistics.median(untraced), "s"),
            "op_s_tail": (tail, "s"),
            "ops_per_s": (len(untraced) / sum(untraced), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ok_ops_share": ((run.attempted - run.failed) / run.attempted, "share"),
        }
    else:
        traced = run.durations[True]
        base = statistics.median(untraced)
        overhead = (statistics.median(traced) - base) / base
        metrics = per_layer_metrics(tracer.spans, len(traced), overhead)
        _print_layers(metrics, statistics.median(traced), len(traced), len(untraced))
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(vars(s)) + "\n")

    print(json.dumps({
        "correct": run.failed == 0 and not run_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 and not run_errors else 1


def _print_layers(metrics, traced_p50: float, n_traced: int, n_untraced: int) -> None:
    print(f"traced ops {n_traced}, untraced ops {n_untraced}, traced op_s_p50 {traced_p50:.4f} s")
    self_s = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values())
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"layer {name:42s} {value:9.4f} s/op  {100 * value / total:5.1f} % of traced self time")
    print(f"dominant layer: {max(self_s, key=self_s.get)}")


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
