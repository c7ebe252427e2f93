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
import math
import sys
import time
from array import array
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
from .moments import DEFAULT_RANK_TOL, as_columns, group_averages, group_samples
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
    design: Optional[dict], k: int, p: int, n_by_group: np.ndarray, weights_file
) -> OracleSpec:
    design = design or {}
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
        gamma = as_columns(gamma_spec)
        if gamma.shape[0] != k:
            raise ConfigError(f"gamma has {gamma.shape[0]} rows, data has k={k}")

    b0_spec = design.get("b0", "full")
    if isinstance(b0_spec, str):
        if b0_spec == "full":
            basis = b0_basis_full(k, p)
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
    if not math.isfinite(val):
        raise ParseError(f"{path}:{row}: column {col!r} is not finite ({raw!r})")
    return val


def _read_table(path: str, what: str, columns) -> tuple[list, list, np.ndarray]:
    """Read a CSV of a ``group_id`` column and numeric columns.

    ``columns`` maps the header to the names of the numeric columns and
    raises ValueError, with the reason, when the header is unfit. Blank lines
    are skipped, and data row r (counting from 0) is reported as row r + 2.
    Every row needs one field per header column, a nonempty ``group_id`` and
    finite numbers; an undecodable byte reads as a lone surrogate and fails in
    its row. Returns the stripped ids, the numeric column names and a
    (rows, columns) array.
    """
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {what} file {path}: {exc}") from exc
    ids: list[str] = []
    values = array("d")  # 8 bytes a number, not a float object each
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if len(set(header)) < len(header):
                raise ValueError(f"repeated column name in header {header}")
            names = columns(header)
            width, at_id = len(header), header.index("group_id")
            at = [(header.index(c), c) for c in names]
            for i, row in enumerate(filter(None, reader), start=2):
                if len(row) != width:
                    raise ParseError(f"{path}:{i}: expected {width} fields, got {len(row)}")
                gid = sys.intern(row[at_id].strip())  # one copy of each id
                if not gid:
                    raise ParseError(f"{path}:{i}: empty group_id")
                if not gid.isascii() and any("\udc80" <= c <= "\udcff" for c in gid):
                    raise ParseError(f"{path}:{i}: group_id {gid!r} is not UTF-8")
                ids.append(gid)
                values.extend([_parse_float(row[j], path, i, c) for j, c in at])
        except (csv.Error, ValueError) as exc:  # an unfit header or malformed CSV
            raise ParseError(f"{path}: {exc}") from exc
    return ids, names, np.array(values).reshape(len(ids), len(names))


def _positions(ids: list[str], path: str) -> dict[str, int]:
    """Each id's row position; an id may appear once."""
    pos: dict[str, int] = {}
    for r, gid in enumerate(ids):
        if pos.setdefault(gid, r) != r:
            raise ParseError(f"{path}:{r + 2}: duplicate group_id {gid!r}")
    return pos


def _units_columns(header: list[str]) -> list[str]:
    required = ["group_id", "delta_y", "e"]
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(f"missing required column(s) {missing}")
    extra = [c for c in header if c not in required + ["z", "weight"]]
    if extra:
        raise ValueError(f"unrecognized column(s) {extra}")
    return [c for c in ("delta_y", "e", "z", "weight") if c in header]


def _policy_columns(header: list[str]) -> list[str]:
    if "group_id" not in header:
        raise ValueError("missing required column 'group_id'")
    wcols = [c for c in header if c != "group_id"]
    expected = [f"w_{j + 1}" for j in range(len(wcols))]
    if wcols != expected:
        raise ValueError(f"policy columns must be {expected}, got {wcols}")
    if not wcols:
        raise ValueError("needs at least one policy column")
    return wcols


def _read_units(units_path: str, policy_path: str):
    """Read the unit-level and policy CSVs into per-group unit columns.

    Returns (ids, n_by_group, columns, policies, file_weights): ids in
    first-appearance order; the columns by name, each group's units one block
    in file order (a group's rows may be interleaved with others'); policies
    aligned with the ids; and the weight column per group, when present.
    """
    ids, names, values = _read_table(units_path, "units", _units_columns)
    if not ids:
        raise ParseError(f"{units_path}: no data rows")
    first: dict[str, int] = {}
    code = np.array([first.setdefault(g, len(first)) for g in ids])
    order = list(first)
    n_by_group = np.bincount(code)

    policy_ids, _, policy = _read_table(policy_path, "policy", _policy_columns)
    pos = _positions(policy_ids, policy_path)
    orphans = [g for g in order if g not in pos]
    if orphans:
        raise ParseError(
            f"{units_path}: group(s) {orphans[:5]} absent from the policy file "
            f"{policy_path}"
        )
    W = policy[[pos[g] for g in order]]

    perm = np.argsort(code, kind="stable")
    cols = dict(zip(names, values[perm].T))
    fw = None
    if "weight" in cols:
        fw = cols["weight"][np.cumsum(n_by_group) - n_by_group]  # each group's first
        varies = np.flatnonzero(cols["weight"] != np.repeat(fw, n_by_group))
        if varies.size:
            i = int(perm[varies[0]])
            raise ParseError(
                f"{units_path}:{i + 2}: weight column varies within group {ids[i]!r}"
            )
    return order, n_by_group, cols, W, fw


def ingest_units(units_path: str, policy_path: str):
    """Read the unit-level and policy CSVs into group samples.

    Returns (samples, policies, n_by_group, file_weights) as :func:`_read_units`
    does. A ``z`` column gives instrumented moments, else difference-design ones.
    """
    ids, n_by_group, cols, W, fw = _read_units(units_path, policy_path)
    samples = group_samples(ids, n_by_group, cols["delta_y"], cols["e"], cols.get("z"))
    return samples, W, n_by_group, fw


def load_aux_designs(path: str, k: int, rank_tol: float) -> dict[str, AuxiliaryDesign]:
    """Read per-group population Jacobians (row-major h2_11..h2_kk columns)."""
    expected = [f"h2_{i + 1}{j + 1}" for i in range(k) for j in range(k)]

    def columns(header: list[str]) -> list[str]:
        if header != ["group_id"] + expected:
            raise ValueError(f"header must be group_id,{','.join(expected)}")
        return expected

    ids, _, values = _read_table(path, "auxiliary", columns)
    _positions(ids, path)
    H2 = values.reshape(-1, k, k)
    out: dict[str, AuxiliaryDesign] = {}
    for i, (gid, h2) in enumerate(zip(ids, H2), start=2):
        try:
            out[gid] = AuxiliaryDesign(H2_pop=h2, rank_tol=rank_tol)
        except InvalidInputError as exc:
            raise ParseError(f"{path}:{i}: {exc}") from exc
    return out


def export_units(data, prefix: str) -> tuple[str, str]:
    """Write one replication to the unit/policy CSV schema."""
    units_path = f"{prefix}.units.csv"
    policy_path = f"{prefix}.policy.csv"
    ids = np.asarray(data.group_ids())
    names = ["delta_y", "e"] + (["z"] if "z" in data.units else [])
    # str(float) is the shortest repr, so the floats read back bit for bit
    cols = [data.units[c].tolist() for c in names]
    with open(units_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id"] + names)
        writer.writerows(zip(ids[data.units["group_index"]].tolist(), *cols))
    W = np.asarray(data.W, dtype=float)
    with open(policy_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id"] + [f"w_{j + 1}" for j in range(W.shape[1])])
        writer.writerows([gid] + row for gid, row in zip(ids.tolist(), W.tolist()))
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
    """Read the files, average the unit moments and resolve the design."""
    io = cfg.get("io", {})
    for key in ("units", "policy"):
        if key not in io:
            raise ConfigError(f"io.{key} is required for {command}")
    rank_tol = float(cfg.get("rank_tol", DEFAULT_RANK_TOL))
    ids, n_by_group, cols, W, fw = _read_units(io["units"], io["policy"])
    with np.errstate(over="ignore"):  # finite cells can still overflow; checked next
        H1, H2 = group_averages(n_by_group, cols["delta_y"], cols["e"], cols.get("z"))
    bad = ~np.isfinite(H1).all(axis=1) | ~np.isfinite(H2).all(axis=(1, 2))
    if bad.any():
        raise ParseError(f"{io['units']}: the moments of group {ids[bad.argmax()]!r} overflow")
    spec = _resolve_design(cfg.get("design"), H1.shape[1], W.shape[1], n_by_group, fw)
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
