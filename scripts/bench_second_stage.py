"""Time the second-stage fits before and after a change.

    python scripts/bench_second_stage.py --base <git-rev> [--runs 7] \
        [--calls 20] [--out BENCH_second_stage.json]

Run from the root of a checkout. "Before" is ``src/`` of ``<git-rev>``
(extracted with ``git archive`` into a temporary directory), "after" is
``src/`` of the working tree. Each run is a fresh interpreter that imports
one side, draws replication 1 of ``gmm_bias_demo`` (G = 2,000) and of
``selection_demo`` (G = 5,000), and times ``fit_md_arrays`` and
``fit_gmm_pooled_arrays`` on them: a run's time is the mean of ``--calls``
calls after one untimed warm-up call. The two sides alternate run by run, so
a drift in machine speed hits both alike. The JSON holds every run, the
median per side, the machine (``nproc``, numpy, BLAS) and whether both sides
returned bit-identical fits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

CASES = (("gmm_bias_demo", 2000), ("selection_demo", 5000))
FITS = ("fit_md_arrays", "fit_gmm_pooled_arrays")


def measure(calls: int) -> dict:
    """Time every (case, fit) pair with the groupfx found on ``sys.path``."""
    import numpy as np

    from groupfx.first_stage import estimate_arrays
    from groupfx.gmm import fit_gmm_pooled_arrays
    from groupfx.md import fit_md_arrays
    from groupfx.simlab import load_preset, simulate

    out = {}
    for name, G in CASES:
        preset = load_preset(name, G=G)
        data = simulate(preset.cfg, 1)
        theta, omega = estimate_arrays(data.H1, data.H2)
        runs = {
            "fit_md_arrays": lambda: fit_md_arrays(theta, omega, data.W, preset.spec),
            "fit_gmm_pooled_arrays": lambda: fit_gmm_pooled_arrays(
                data.H1, data.H2, data.W, preset.spec
            ),
        }
        for fit_name in FITS:
            fit = runs[fit_name]()  # warm-up
            # the id-keyed residuals exist on both sides of the change
            resid = np.stack(list(fit.residuals.values()))
            digest = hashlib.sha256(
                b"".join(
                    np.ascontiguousarray(a).tobytes()
                    for a in (fit.basis_coefs, fit.alpha_hat, fit.vcov_full, resid)
                )
                + "|".join(fit.residuals).encode()
            ).hexdigest()[:16]
            t0 = time.perf_counter()
            for _ in range(calls):
                runs[fit_name]()
            seconds = (time.perf_counter() - t0) / calls
            out[f"{fit_name}/{name}"] = {"ms": seconds * 1e3, "digest": digest}
    return out


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def _run_side(src: str, calls: int) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", "--calls", str(calls)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision measured as 'before'")
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--out", default="BENCH_second_stage.json")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.calls)))
        return 0
    if not args.base:
        parser.error("--base is required")
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    rev = subprocess.run(
        ["git", "rev-parse", "--short", args.base],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = os.path.join(tmp, "base.tar")
        subprocess.run(["git", "archive", "-o", archive, rev, "src"], check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp)
        sides = {"before": os.path.join(tmp, "src"), "after": os.path.abspath("src")}
        runs = {side: [] for side in sides}
        for i in range(args.runs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(_run_side(sides[side], args.calls))

    results = []
    for key in runs["after"][0]:
        fit_name, case = key.split("/")
        row = {"fit": fit_name, "preset": case, "G": dict(CASES)[case]}
        for side in sides:
            times = [r[key]["ms"] for r in runs[side]]
            row[f"{side}_ms_median"] = round(statistics.median(times), 3)
            row[f"{side}_ms_runs"] = [round(t, 3) for t in times]
        row["speedup"] = round(row["before_ms_median"] / row["after_ms_median"], 2)
        row["bit_identical"] = all(
            r[key]["digest"] == runs["before"][0][key]["digest"]
            for side in sides
            for r in runs[side]
        )
        results.append(row)
    report = {
        "benchmark": "second-stage fit time per call",
        "command": " ".join([os.path.basename(sys.executable)] + sys.argv),
        "base": rev,
        "runs": args.runs,
        "calls_per_run": args.calls,
        "machine": machine(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row in results:
        print(
            f"{row['fit']:24s} {row['preset']:15s} G={row['G']:5d}  "
            f"{row['before_ms_median']:8.2f} -> {row['after_ms_median']:8.2f} ms  "
            f"x{row['speedup']:.2f}  identical={row['bit_identical']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
