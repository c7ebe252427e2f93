"""Command-line interface.

Three subcommands driven by a JSON config: ``estimate`` ingests unit-level and
policy CSVs and runs a chosen estimator end to end, ``simulate`` runs a named
synthetic scenario through the Monte Carlo driver, and ``diagnose`` stops
after the first stage and reports selection, conditioning, and the
discarded-group bound. Reports are machine-readable JSON (validating against
the shipped schema) plus a human-readable table on standard output.

Config parsing is strict: unknown keys are fatal, because silently ignored
configuration is how estimation tooling goes wrong.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    conditioning_summary_arrays,
    md_bias_bound,
    selection_report_arrays,
)
from .exceptions import (
    ConfigError,
    DesignDeficientError,
    GroupfxError,
    InvalidInputError,
    ParseError,
)
from .estimators import ESTIMATORS, GroupArrays
from .first_stage import AuxiliaryDesign, estimate_arrays, stack_aux
from .md import (
    OracleSpec,
    b0_basis_diagonal,
    b0_basis_full,
    b0_basis_scalar,
    fit_md_arrays,
)
from .moments import DEFAULT_RANK_TOL, GroupSample, moment_layout, stack_averages
from .simlab import (
    load_preset,
    run_monte_carlo,
    simulate,
    true_coefficients,
)

REPORT_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DESIGN = 2
EXIT_INTERNAL = 3

# estimators that need simulated truth cannot run on files
_METHODS = tuple(name for name, est in ESTIMATORS.items() if not est.needs_truth)


# ---------------------------------------------------------------------------
# config handling

_TOP_KEYS = {
    "estimate": {"method", "io", "design", "rank_tol", "report"},
    "diagnose": {"io", "design", "rank_tol", "report"},
    "simulate": {"scenario", "estimators", "replications", "seed", "rank_tol"},
}
_IO_KEYS = {"units", "policy", "aux", "out"}
_DESIGN_KEYS = {"gamma", "b0", "weights"}
_REPORT_KEYS = {"per_group"}
_SCENARIO_KEYS = {"name", "G", "seed"}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS[command], "the config root")
    if "io" in cfg:
        _check_keys(cfg["io"], _IO_KEYS, "'io'")
    if "design" in cfg:
        _check_keys(cfg["design"], _DESIGN_KEYS, "'design'")
    if "report" in cfg:
        _check_keys(cfg["report"], _REPORT_KEYS, "'report'")
    if "scenario" in cfg:
        if not isinstance(cfg["scenario"], dict):
            raise ConfigError("'scenario' must be an object")
        _check_keys(cfg["scenario"], _SCENARIO_KEYS, "'scenario'")
    return cfg


def _resolve_design(
    design: Optional[dict], k: int, n_by_group: Optional[np.ndarray], weights_file
) -> OracleSpec:
    design = dict(design or {})
    gamma_spec = design.get("gamma", "none")
    if isinstance(gamma_spec, str):
        if gamma_spec == "none":
            gamma = np.zeros((k, 0))
        elif gamma_spec == "ones":
            gamma = np.ones((k, 1))
        else:
            raise ConfigError(
                f"unknown gamma preset {gamma_spec!r}; use 'none', 'ones', or a matrix"
            )
    else:
        gamma = np.asarray(gamma_spec, dtype=float)
        if gamma.ndim == 1:
            gamma = gamma[:, None]
        if gamma.shape[0] != k:
            raise ConfigError(f"gamma has {gamma.shape[0]} rows, data has k={k}")

    b0_spec = design.get("b0", "full")
    p_hint = design.get("_p")  # set by callers that know the policy dimension
    if isinstance(b0_spec, str):
        if b0_spec == "full":
            if p_hint is None:
                raise ConfigError("cannot resolve the 'full' effect basis without data")
            basis = b0_basis_full(k, int(p_hint))
        elif b0_spec == "scalar":
            basis = b0_basis_scalar(k)
        elif b0_spec == "diagonal":
            basis = b0_basis_diagonal(k)
        else:
            raise ConfigError(
                f"unknown b0 preset {b0_spec!r}; use 'full', 'scalar', 'diagonal', "
                "or an explicit list of matrices"
            )
    else:
        basis = [np.asarray(b, dtype=float) for b in b0_spec]

    weight_mode = design.get("weights", "unit")
    if weight_mode == "unit":
        gw = None
    elif weight_mode == "group_size":
        if n_by_group is None:
            raise ConfigError("'group_size' weights need ingested data")
        gw = n_by_group.astype(float)
    elif weight_mode == "file":
        if weights_file is None:
            raise ConfigError(
                "'file' weights need a 'weight' column in the units file"
            )
        gw = weights_file
    else:
        raise ConfigError(
            f"unknown weights mode {weight_mode!r}; use 'unit', 'group_size', or 'file'"
        )
    return OracleSpec(gamma, basis, group_weights=gw)


# ---------------------------------------------------------------------------
# CSV ingestion and export

def _parse_float(raw: str, path: str, row: int, col: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ParseError(
            f"{path}:{row}: column {col!r} has non-numeric value {raw!r}"
        ) from exc
    if not np.isfinite(val):
        raise ParseError(f"{path}:{row}: column {col!r} is not finite ({raw!r})")
    return val


def ingest_units(units_path: str, policy_path: str):
    """Read the unit-level and policy CSVs into group samples.

    Returns (samples, policies, n_by_group, file_weights): samples in
    first-appearance order of ``group_id``, a policy matrix aligned with them,
    per-group sizes, and the per-group weight column when present (it must be
    constant within a group). The event column decides the moment design:
    with a ``z`` column, instrumented moments are built; without it, the
    difference-design moments.
    """
    groups: dict[str, dict[str, list]] = {}
    order: list[str] = []
    has_z = False
    has_weight = False
    try:
        fh = open(units_path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open units file {units_path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = ["group_id", "delta_y", "e"]
        missing = [c for c in required if c not in header]
        if missing:
            raise ParseError(f"{units_path}: missing required column(s) {missing}")
        extra = [c for c in header if c not in required + ["z", "weight"]]
        if extra:
            raise ParseError(f"{units_path}: unrecognized column(s) {extra}")
        has_z = "z" in header
        has_weight = "weight" in header
        for i, row in enumerate(reader, start=2):
            gid = (row.get("group_id") or "").strip()
            if not gid:
                raise ParseError(f"{units_path}:{i}: empty group_id")
            if any(row.get(c) in (None, "") for c in required):
                raise ParseError(f"{units_path}:{i}: missing required field")
            dy = _parse_float(row["delta_y"], units_path, i, "delta_y")
            e = _parse_float(row["e"], units_path, i, "e")
            z = _parse_float(row["z"], units_path, i, "z") if has_z else None
            w = (
                _parse_float(row["weight"], units_path, i, "weight")
                if has_weight and row.get("weight") not in (None, "")
                else None
            )
            if has_weight and w is None:
                raise ParseError(f"{units_path}:{i}: missing weight value")
            if gid not in groups:
                groups[gid] = {"dy": [], "e": [], "z": [], "w": []}
                order.append(gid)
            rec = groups[gid]
            rec["dy"].append(dy)
            rec["e"].append(e)
            if has_z:
                rec["z"].append(z)
            if has_weight:
                rec["w"].append(w)
    if not order:
        raise ParseError(f"{units_path}: no data rows")

    policy: dict[str, list[float]] = {}
    p_dim: Optional[int] = None
    try:
        fh = open(policy_path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open policy file {policy_path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if "group_id" not in header:
            raise ParseError(f"{policy_path}: missing required column 'group_id'")
        wcols = [c for c in header if c != "group_id"]
        expected = [f"w_{j + 1}" for j in range(len(wcols))]
        if wcols != expected:
            raise ParseError(
                f"{policy_path}: policy columns must be {expected}, got {wcols}"
            )
        if not wcols:
            raise ParseError(f"{policy_path}: needs at least one policy column")
        p_dim = len(wcols)
        for i, row in enumerate(reader, start=2):
            gid = (row.get("group_id") or "").strip()
            if not gid:
                raise ParseError(f"{policy_path}:{i}: empty group_id")
            if gid in policy:
                raise ParseError(f"{policy_path}:{i}: duplicate group_id {gid!r}")
            policy[gid] = [
                _parse_float(row[c], policy_path, i, c) for c in wcols
            ]

    orphans = [g for g in order if g not in policy]
    if orphans:
        raise ParseError(
            f"{units_path}: group(s) {orphans[:5]} absent from the policy file "
            f"{policy_path}"
        )

    samples: list[GroupSample] = []
    weights = [] if has_weight else None
    for gid in order:
        rec = groups[gid]
        h1, h2 = moment_layout(
            np.asarray(rec["dy"]),
            np.asarray(rec["e"]),
            np.asarray(rec["z"]) if has_z else None,
        )
        samples.append(GroupSample(group_id=gid, h1s=h1, h2s=h2))
        if has_weight:
            wvals = set(rec["w"])
            if len(wvals) != 1:
                raise ParseError(
                    f"{units_path}: weight column varies within group {gid!r}"
                )
            weights.append(rec["w"][0])

    W = np.asarray([policy[g] for g in order], dtype=float)
    n_by_group = np.asarray([s.n_g for s in samples])
    fw = np.asarray(weights, dtype=float) if weights is not None else None
    return samples, W, n_by_group, fw


def load_aux_designs(path: str, k: int, rank_tol: float) -> dict[str, AuxiliaryDesign]:
    """Read per-group population Jacobians (row-major h2_11..h2_kk columns)."""
    expected = [f"h2_{i + 1}{j + 1}" for i in range(k) for j in range(k)]
    out: dict[str, AuxiliaryDesign] = {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open auxiliary file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if header != ["group_id"] + expected:
            raise ParseError(
                f"{path}: header must be group_id,{','.join(expected)}"
            )
        for i, row in enumerate(reader, start=2):
            gid = (row.get("group_id") or "").strip()
            vals = [_parse_float(row[c], path, i, c) for c in expected]
            H2 = np.asarray(vals).reshape(k, k)
            try:
                out[gid] = AuxiliaryDesign(H2_pop=H2, rank_tol=rank_tol)
            except InvalidInputError as exc:
                raise ParseError(f"{path}:{i}: {exc}") from exc
    return out


def _fmt_float(x: float) -> str:
    return repr(float(x))


def export_units(data, prefix: str) -> tuple[str, str]:
    """Write one replication to the unit/policy CSV schema."""
    units_path = f"{prefix}.units.csv"
    policy_path = f"{prefix}.policy.csv"
    ids = data.group_ids()
    gi = data.units["group_index"]
    dy = data.units["delta_y"]
    e = data.units["e"]
    z = data.units.get("z")
    with open(units_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "delta_y", "e"] + (["z"] if z is not None else []))
        for i in range(dy.shape[0]):
            row = [ids[int(gi[i])], _fmt_float(dy[i]), int(e[i])]
            if z is not None:
                row.append(int(z[i]))
            writer.writerow(row)
    with open(policy_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        p = data.W.shape[1]
        writer.writerow(["group_id"] + [f"w_{j + 1}" for j in range(p)])
        for g, gid in enumerate(ids):
            writer.writerow([gid] + [_fmt_float(v) for v in data.W[g]])
    return units_path, policy_path


# ---------------------------------------------------------------------------
# report assembly

def _selection_dict(rep) -> dict:
    return {
        "groups": rep.G,
        "dropped": rep.dropped,
        "share": rep.share,
        "heuristic_threshold": rep.heuristic_threshold,
        "flag": rep.flag,
    }


def _group_rows(arrays: GroupArrays, theta, omega, res=None) -> list[dict]:
    """Per-group report rows from the first stage and the fit's residuals.

    ``res`` holds the residuals by input position, NaN rows where undefined.
    ``theta_hat`` is None for unselected groups, ``residual`` where ``res``
    has a NaN row or is not given.
    """
    if res is None:
        res = np.full((omega.shape[0], 1), np.nan)
    defined = ~np.all(np.isnan(res), axis=1)
    cols = [c.tolist() for c in (arrays.n, omega, theta, res, defined)]
    return [
        {
            "group_id": gid,
            "n_g": n_g,
            "omega": om,
            "theta_hat": th if om else None,
            "residual": r if ok else None,
        }
        for gid, n_g, om, th, r, ok in zip(arrays.group_ids, *cols)
    ]


def _input_residuals(fit, G: int) -> np.ndarray:
    """The fit's residuals by input position, (G, k); NaN rows where undefined."""
    res = np.full((G, fit.resid.shape[1]), np.nan)
    res[fit.positions] = fit.resid
    return res


def _proxy_bound(W: np.ndarray, omegas: np.ndarray, res: np.ndarray, spec: OracleSpec):
    """The discarded-group bound on feasible residuals, or None when undefined.

    ``res`` holds the residuals by input position, NaN rows where undefined;
    the bound reads those as zero.
    """
    res = np.where(np.isnan(res), 0.0, res)
    try:
        return md_bias_bound(W, omegas, res, spec, residual_source="proxy")
    except DesignDeficientError:
        return None


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = {
        c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in columns))


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, np.ndarray)):
        return "[" + ", ".join(f"{float(x):.4g}" for x in np.ravel(v)) + "]"
    return str(v)


def _emit(report: dict, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def _load_data(cfg: dict, command: str):
    """Ingest the files, resolve the design and stack the group averages."""
    io = cfg.get("io", {})
    for key in ("units", "policy"):
        if key not in io:
            raise ConfigError(f"io.{key} is required for {command}")
    rank_tol = float(cfg.get("rank_tol", DEFAULT_RANK_TOL))
    samples, W, n_by_group, fw = ingest_units(io["units"], io["policy"])
    design = dict(cfg.get("design", {}))
    design["_p"] = W.shape[1]
    spec = _resolve_design(design, samples[0].k, n_by_group, fw)
    H1, H2 = stack_averages(samples)
    ids = [s.group_id for s in samples]
    return io, rank_tol, GroupArrays(H1, H2, n_by_group, W, group_ids=ids), spec


def cmd_estimate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "estimate")
    method = cfg.get("method")
    if method not in _METHODS:
        raise ConfigError(f"'method' must be one of {_METHODS}, got {method!r}")
    estimator = ESTIMATORS[method]
    io, rank_tol, arrays, spec = _load_data(cfg, "estimate")
    if estimator.needs_aux:
        if "aux" not in io:
            raise ConfigError(f"io.aux is required for method {method!r}")
        aux = load_aux_designs(io["aux"], spec.k, rank_tol)
        arrays = arrays._replace(H2_pop=stack_aux(aux, arrays.group_ids))
    result = estimator.run(arrays, spec, rank_tol)
    fit = result.fit
    # the selection report and group rows share the entry's first stage
    theta, omega = result.theta, result.omega
    if omega is None:
        theta, omega = estimate_arrays(arrays.H1, arrays.H2, rank_tol=rank_tol)
    res = None if fit is None else _input_residuals(fit, omega.shape[0])

    sel = selection_report_arrays(omega)
    bound = None if fit is None else _proxy_bound(arrays.W, omega, res, spec)

    coef_rows = [
        {"name": name, "estimate": float(value), "std_error": float(se)}
        for name, value, se in result.rows
    ]
    report = {
        "version": REPORT_VERSION,
        "command": "estimate",
        "config": _echo_config(cfg),
        "coefficients": coef_rows,
        "selection": _selection_dict(sel),
        "bias_bound": None if bound is None else asdict(bound),
        "timing": {"seconds": time.perf_counter() - t0},
    }
    if cfg.get("report", {}).get("per_group"):
        report["groups"] = _group_rows(arrays, theta, omega, res)
    _emit(report, args.out or io.get("out"))
    if not args.json_only:
        print(f"method: {method}   groups: {sel.G}   dropped: {sel.dropped}")
        _print_table(coef_rows, ["name", "estimate", "std_error"])
        if bound is not None:
            print(
                f"selection share {sel.share:.4g} "
                f"(heuristic threshold {sel.heuristic_threshold:.4g}, "
                f"flag={'yes' if sel.flag else 'no'}); "
                f"bias bound {bound.bound_value:.6g} [proxy residuals]"
            )
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "simulate")
    scenario = cfg.get("scenario")
    if not scenario or "name" not in scenario:
        raise ConfigError("simulate needs scenario.name")
    overrides = {k: scenario[k] for k in ("G", "seed") if k in scenario}
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif "seed" in cfg:
        overrides.setdefault("seed", int(cfg["seed"]))
    preset = load_preset(scenario["name"], **overrides)
    R = int(cfg.get("replications", preset.default_replications))
    estimators = cfg.get("estimators")
    if estimators is None:
        estimators = ["oracle", "md", "tsls_pooled" if preset.cfg.kind == "iv" else "gmm"]
    rank_tol = float(cfg.get("rank_tol", DEFAULT_RANK_TOL))

    summaries = run_monte_carlo(
        preset.cfg, estimators, R, spec=preset.spec, rank_tol=rank_tol
    )
    b_true = true_coefficients(preset.cfg, preset.spec)
    mc_rows = []
    for s in summaries:
        mc_rows.append(
            {
                "estimator": s.estimator,
                "replications": s.replications,
                "mean": [float(x) for x in s.mean],
                "sd": [float(x) for x in s.sd],
                "mc_se": [float(x) for x in s.mc_se],
                "bias": [float(x) for x in s.bias],
                "coverage": None
                if s.coverage is None
                else [float(x) for x in s.coverage],
                "mean_dropped_share": s.mean_dropped_share,
            }
        )
    report = {
        "version": REPORT_VERSION,
        "command": "simulate",
        "config": _echo_config(cfg),
        "scenario": preset.name,
        "true_coefficients": [float(x) for x in b_true],
        "targets": {k: float(v) for k, v in preset.targets.items()},
        "mc_summaries": mc_rows,
        "timing": {"seconds": time.perf_counter() - t0},
    }
    if args.export_data:
        data = simulate(preset.cfg, 1)
        units_path, policy_path = export_units(data, args.export_data)
        report["exported"] = {"units": units_path, "policy": policy_path}
    _emit(report, args.out)
    if not args.json_only:
        print(
            f"scenario: {preset.name}   replications: {R}   "
            f"true effect coefficients: {_cell(b_true)}"
        )
        if preset.targets:
            print("population targets: " + json.dumps(report["targets"]))
        _print_table(
            mc_rows,
            ["estimator", "mean", "bias", "mc_se", "coverage", "mean_dropped_share"],
        )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "diagnose")
    io, rank_tol, arrays, spec = _load_data(cfg, "diagnose")
    theta, omega = estimate_arrays(arrays.H1, arrays.H2, rank_tol=rank_tol)
    sel = selection_report_arrays(omega)
    cond = conditioning_summary_arrays(arrays.H2, omega)
    try:
        fit = fit_md_arrays(theta, omega, arrays.W, spec)
        res = _input_residuals(fit, omega.shape[0])
        bound = _proxy_bound(arrays.W, omega, res, spec)
    except (DesignDeficientError, InvalidInputError):
        bound = None

    report = {
        "version": REPORT_VERSION,
        "command": "diagnose",
        "config": _echo_config(cfg),
        "selection": _selection_dict(sel),
        "conditioning": None if cond is None else dict(cond),
        "bias_bound": None if bound is None else asdict(bound),
        "timing": {"seconds": time.perf_counter() - t0},
    }
    if cfg.get("report", {}).get("per_group"):
        report["groups"] = _group_rows(arrays, theta, omega)
    _emit(report, args.out or io.get("out"))
    if not args.json_only:
        print(
            f"groups: {sel.G}   dropped: {sel.dropped} "
            f"(share {sel.share:.4g}, threshold {sel.heuristic_threshold:.4g}, "
            f"flag={'yes' if sel.flag else 'no'})"
        )
        if cond is not None:
            print(
                "selected-group conditioning: min smallest singular value "
                f"{cond['min_smallest_singular_value']:.6g}, median "
                f"{cond['median_smallest_singular_value']:.6g}"
            )
        if bound is not None:
            print(f"bias bound [proxy residuals]: {bound.bound_value:.6g}")
    return EXIT_OK


def _echo_config(cfg: dict) -> dict:
    return json.loads(json.dumps(cfg))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupfx",
        description=(
            "Group-level policy effect estimation: explicit two-step fits, "
            "pooled one-step fits, weighting diagnostics, and synthetic "
            "scenario simulations."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("estimate", cmd_estimate),
        ("simulate", cmd_simulate),
        ("diagnose", cmd_diagnose),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
        p.add_argument(
            "--json-only",
            action="store_true",
            help="suppress the human-readable table",
        )
        if name == "simulate":
            p.add_argument(
                "--export-data",
                default=None,
                metavar="PREFIX",
                help="dump replication 1 to PREFIX.units.csv / PREFIX.policy.csv",
            )
        p.set_defaults(func=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GroupfxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except Exception as exc:  # malformed input must not crash the process
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
