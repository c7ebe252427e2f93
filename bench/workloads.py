"""The benchmark's workloads: what one op runs and how its output is checked.

Every op goes through ``groupfx.cli.main`` with generated config files, so
the program sees only those files and the ``--seed`` argument. Checks run
between ops, outside the timed interval, and return a list of error strings
(empty when the op is correct) plus the numbers that enter the result digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

# keys of a report whose values are not results: wall time, the config echo
# and the paths of exported files
_NON_RESULT_KEYS = {"timing", "config", "exported"}


def result_numbers(obj, out: Optional[list] = None) -> list[float]:
    """Every number of a report, in key-sorted order, skipping non-results."""
    if out is None:
        out = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            if key not in _NON_RESULT_KEYS:
                result_numbers(obj[key], out)
    elif isinstance(obj, list):
        for item in obj:
            result_numbers(item, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.append(float(obj))
    return out


def op_digest(numbers: list[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(numbers)}d", *numbers)).hexdigest()


def _shape(obj):
    if isinstance(obj, dict):
        return tuple((k, _shape(v)) for k, v in obj.items())
    if isinstance(obj, list):
        return tuple(_shape(v) for v in obj)
    if isinstance(obj, (float, str)):
        return type(obj)
    return obj  # None, bools and ints keep their values


def _schema_view(report: dict) -> dict:
    """The report with its group rows reduced to one row per shape.

    The schema constrains a group row only through the JSON types of its
    fields and the values of its integer fields, which a row's shape keeps,
    so every row of a shape validates exactly when that shape's first row
    does. Validating thousands of rows one by one would cost more than the op.
    """
    rows = report.get("groups")
    if not isinstance(rows, list):
        return report
    shapes: dict = {}
    for row in rows:
        shapes.setdefault(_shape(row), row)
    return {**report, "groups": list(shapes.values())}


def _read_report(path: str, validator, errors: list[str]) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"cannot read report {os.path.basename(path)}: {exc}")
        return None
    problems = [e.message for e in validator.iter_errors(_schema_view(report))]
    if problems:
        errors.append(f"{os.path.basename(path)} violates the schema: {problems[:3]}")
        return None
    bad = [x for x in result_numbers(report) if not math.isfinite(x)]
    if bad:
        errors.append(f"{os.path.basename(path)} has {len(bad)} non-finite number(s)")
    return report


def _check_mc_rows(report: dict, estimators, replications: int, errors: list[str]) -> None:
    rows = report.get("mc_summaries", [])
    names = [r["estimator"] for r in rows]
    if names != list(estimators):
        errors.append(f"estimator rows {names}, expected {list(estimators)}")
    for r in rows:
        if r["replications"] != replications:
            errors.append(
                f"{r['estimator']}: {r['replications']} replications, expected {replications}"
            )


def pooled_bias(rows: list[dict]) -> tuple[float, float]:
    """Bias and Monte Carlo SE of the effect coordinate over all ops' draws.

    Each row is one op's summary of one estimator (``bias``, ``sd`` and
    ``replications``); ops draw from independent seeds, so their draws pool
    into one sample whose sum of squares is rebuilt from the per-op moments.
    """
    R = rows[0]["replications"]
    biases = [r["bias"][-1] for r in rows]
    n = len(rows) * R
    mean = sum(biases) / len(rows)
    ss = sum((R - 1) * r["sd"][-1] ** 2 for r in rows) + R * sum(
        (b - mean) ** 2 for b in biases
    )
    return mean, math.sqrt(ss / (n - 1)) / math.sqrt(n)


@dataclass(frozen=True)
class MonteCarlo:
    """``groupfx simulate`` of one preset; run-level checks pool every op.

    ``targets`` maps an estimator to the report target its pooled bias must
    match within 4 Monte Carlo SE, or to None for a bias of zero.
    """

    preset: str
    estimators: tuple[str, ...]
    replications: int
    targets: dict

    def write_configs(self, tmp: str) -> None:
        with open(os.path.join(tmp, "simulate.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "scenario": {"name": self.preset},
                    "estimators": list(self.estimators),
                    "replications": self.replications,
                },
                fh,
            )

    def run_op(self, cli, tmp: str, seed: int) -> list[int]:
        return [
            cli.main(
                ["simulate", "--config", os.path.join(tmp, "simulate.json"),
                 "--seed", str(seed), "--out", os.path.join(tmp, "report.json"),
                 "--json-only"]
            )
        ]

    def outputs(self, tmp: str) -> list[str]:
        return [os.path.join(tmp, "report.json")]

    def check_op(self, tmp, seed, codes, validator):
        errors = [f"exit code {c}" for c in codes if c != 0]
        report = _read_report(os.path.join(tmp, "report.json"), validator, errors)
        if report is None:
            return errors, [], None
        if report.get("scenario") != self.preset:
            errors.append(f"scenario {report.get('scenario')!r}, expected {self.preset!r}")
        _check_mc_rows(report, self.estimators, self.replications, errors)
        # only correct ops enter the pooled run-level checks
        return errors, result_numbers(report), None if errors else report

    def check_run(self, reports: list[dict]) -> list[str]:
        errors = []
        if not reports:
            return ["no op produced a correct report"]
        for est, target_key in self.targets.items():
            rows = [r for rep in reports for r in rep["mc_summaries"] if r["estimator"] == est]
            bias, se = pooled_bias(rows)
            target = 0.0 if target_key is None else reports[0]["targets"][target_key]
            line = (f"{est}: pooled bias {bias:.6g} vs {target_key or 'zero'} "
                    f"{target:.6g}, MC SE {se:.3g} over {len(rows) * rows[0]['replications']} draws")
            print("run_check " + line)
            if not abs(bias - target) < 4 * se:
                errors.append(line + " (more than 4 MC SE apart)")
        return errors


ROUNDTRIP_PRESET = "selection_demo"


def roundtrip_reference(seed: int):
    """b_1, theta, omega and group ids of the array path on replication 1."""
    from groupfx.first_stage import estimate_arrays
    from groupfx.md import fit_md_arrays
    from groupfx.simlab import load_preset, simulate

    preset = load_preset(ROUNDTRIP_PRESET, seed=seed)
    data = simulate(preset.cfg, 1)
    theta, omega = estimate_arrays(data.H1, data.H2)
    fit = fit_md_arrays(theta, omega, data.W, preset.spec)
    return float(fit.basis_coefs[0]), theta, omega, data.group_ids()


def check_roundtrip(report: dict, reference) -> list[str]:
    """Bit-for-bit agreement of ``estimate`` on the export with the array path."""
    b_ref, theta, omega, ids = reference
    errors = []
    b = [c["estimate"] for c in report.get("coefficients", []) if c["name"] == "b_1"]
    if b != [b_ref]:
        errors.append(f"b_1 {b} differs from the array path's {b_ref!r}")
    rows = {r["group_id"]: r["theta_hat"] for r in report.get("groups", [])}
    if list(rows) != ids:
        errors.append(f"{len(rows)} group rows, expected {len(ids)} in export order")
        return errors
    mismatched = sum(
        rows[gid] != ([float(x) for x in theta[i]] if omega[i] else None)
        for i, gid in enumerate(ids)
    )
    if mismatched:
        errors.append(f"{mismatched} group(s) differ from the array path's theta_hat")
    return errors


class RoundTrip:
    """``simulate --export-data`` of ``selection_demo``, then ``estimate`` on it."""

    def write_configs(self, tmp: str) -> None:
        prefix = os.path.join(tmp, "export")
        configs = {
            "simulate.json": {
                "scenario": {"name": ROUNDTRIP_PRESET},
                "estimators": ["md"],
                "replications": 1,
            },
            "estimate.json": {
                "method": "md",
                "io": {"units": prefix + ".units.csv", "policy": prefix + ".policy.csv"},
                "design": {"gamma": [[1], [0]], "b0": [[[0], [1]]]},
                "report": {"per_group": True},
            },
        }
        for name, cfg in configs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)

    def run_op(self, cli, tmp: str, seed: int) -> list[int]:
        codes = [
            cli.main(
                ["simulate", "--config", os.path.join(tmp, "simulate.json"),
                 "--seed", str(seed), "--out", os.path.join(tmp, "simulate.out.json"),
                 "--json-only", "--export-data", os.path.join(tmp, "export")]
            )
        ]
        if codes[0] == 0:
            codes.append(
                cli.main(
                    ["estimate", "--config", os.path.join(tmp, "estimate.json"),
                     "--out", os.path.join(tmp, "estimate.out.json"), "--json-only"]
                )
            )
        return codes

    def outputs(self, tmp: str) -> list[str]:
        return [os.path.join(tmp, n) for n in (
            "simulate.out.json", "estimate.out.json", "export.units.csv", "export.policy.csv"
        )]

    def check_op(self, tmp, seed, codes, validator):
        errors = [f"exit code {c}" for c in codes if c != 0]
        if len(codes) < 2:
            errors.append("estimate did not run")
            return errors, [], None
        sim = _read_report(os.path.join(tmp, "simulate.out.json"), validator, errors)
        est = _read_report(os.path.join(tmp, "estimate.out.json"), validator, errors)
        if sim is None or est is None:
            return errors, [], None
        _check_mc_rows(sim, ["md"], 1, errors)
        if "exported" not in sim:
            errors.append("simulate report lists no exported files")
        names = [c["name"] for c in est.get("coefficients", [])]
        if names != ["alpha_1", "alpha_2", "b_1"]:
            errors.append(f"coefficient rows {names}")
        errors += check_roundtrip(est, roundtrip_reference(seed))
        return errors, result_numbers(sim) + result_numbers(est), None

    def check_run(self, reports: list[dict]) -> list[str]:
        return []


WORKLOADS = {
    "mc_gmm_bias": MonteCarlo(
        preset="gmm_bias_demo",
        estimators=("oracle", "md", "gmm"),
        replications=10,
        targets={"gmm": "gmm_plim_bias", "md": None},
    ),
    "mc_iv_compliance": MonteCarlo(
        preset="iv_compliance_demo",
        estimators=("md", "tsls_pooled"),
        replications=10,
        targets={"tsls_pooled": "tsls_plim_bias"},
    ),
    "cli_roundtrip_selection": RoundTrip(),
}
