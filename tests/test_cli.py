import contextlib
import importlib.resources
import io
import itertools
import json
import os
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupfx as gx
from groupfx.cli import main
from groupfx.exceptions import ParseError
from groupfx.cli import ingest_units, load_aux_designs


SCHEMA = json.loads(
    importlib.resources.files("groupfx").joinpath("report_schema.json").read_text()
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def fixture_dir(tmp_path):
    _write(
        tmp_path / "units.csv",
        "group_id,delta_y,e\n"
        "g1,1.0,0\ng1,3.0,1\n"
        "g2,1.0,0\ng2,5.0,1\n"
        "g3,1.0,0\ng3,7.0,1\n",
    )
    _write(
        tmp_path / "policy.csv",
        "group_id,w_1\ng1,0.0\ng2,1.0\ng3,2.0\n",
    )
    return tmp_path


def _config(tmp_path, name="cfg.json", **body):
    return _write(tmp_path / name, json.dumps(body))


def _design():
    return {"gamma": [[1], [0]], "b0": [[[0], [1]]]}


def _validated_report(path):
    report = json.loads(open(path).read())
    jsonschema.validate(report, SCHEMA)
    return report


class TestIngest:
    def test_minimal_parse(self, tmp_path):
        units = _write(tmp_path / "u.csv", "group_id,delta_y,e\ng1,3.0,1\ng1,1.0,0\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        samples, W, n, fw = ingest_units(units, policy)
        assert [s.group_id for s in samples] == ["g1"]
        assert samples[0].n_g == 2
        np.testing.assert_array_equal(W, [[0.0]])
        assert fw is None

    def test_orphan_group_rejected(self, tmp_path):
        units = _write(tmp_path / "u.csv", "group_id,delta_y,e\ng1,3.0,1\ng2,1.0,0\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        with pytest.raises(ParseError, match="absent from the policy file"):
            ingest_units(units, policy)

    def test_missing_column_named(self, tmp_path):
        units = _write(tmp_path / "u.csv", "group_id,dy,e\ng1,3.0,1\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        with pytest.raises(ParseError, match="delta_y"):
            ingest_units(units, policy)

    def test_repeated_column_rejected(self, tmp_path):
        units = _write(tmp_path / "u.csv", "group_id,delta_y,e,e\ng1,3.0,1,0\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        with pytest.raises(ParseError, match="repeated column"):
            ingest_units(units, policy)

    def test_non_numeric_cell_row_numbered(self, tmp_path):
        units = _write(
            tmp_path / "u.csv", "group_id,delta_y,e\ng1,3.0,1\ng1,oops,0\n"
        )
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        with pytest.raises(ParseError, match=r"u\.csv:3"):
            ingest_units(units, policy)

    @pytest.mark.parametrize("row", [b"g1,3.0\xff,1", b"g\xff1,3.0,1"], ids=["number", "id"])
    def test_undecodable_byte_row_numbered(self, tmp_path, row):
        units = tmp_path / "u.csv"
        units.write_bytes(b"group_id,delta_y,e\ng1,1.0,0\n" + row + b"\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        with pytest.raises(ParseError, match=r"u\.csv:3:"):
            ingest_units(str(units), policy)

    def test_z_column_switches_to_instrumented_moments(self, tmp_path):
        units = _write(
            tmp_path / "u.csv", "group_id,delta_y,e,z\ng1,3.0,1,0\ng1,1.0,0,1\n"
        )
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        samples, _, _, _ = ingest_units(units, policy)
        # h2 row of a (e=0, z=1) unit is [[1, 0], [1, 0]]
        np.testing.assert_array_equal(samples[0].h2s[1], [[1, 0], [1, 0]])

    def test_weight_column_must_be_group_constant(self, tmp_path):
        units = _write(
            tmp_path / "u.csv",
            "group_id,delta_y,e,weight\ng1,3.0,1,2.0\ng1,1.0,0,3.0\n",
        )
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        with pytest.raises(ParseError, match="varies within group"):
            ingest_units(units, policy)

    def test_duplicate_policy_row_rejected(self, tmp_path):
        units = _write(tmp_path / "u.csv", "group_id,delta_y,e\ng1,3.0,1\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\ng1,1.0\n")
        with pytest.raises(ParseError, match="duplicate group_id"):
            ingest_units(units, policy)

    def test_non_binary_event_matches_library_moments(self, tmp_path):
        rows = [(1.0, 0.0), (2.5, 0.5), (4.0, 1.0), (7.0, 2.0)]
        units = _write(
            tmp_path / "u.csv",
            "group_id,delta_y,e\n" + "".join(f"g1,{dy!r},{e!r}\n" for dy, e in rows),
        )
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        (sample,), _, _, _ = ingest_units(units, policy)
        for i, (dy, e) in enumerate(rows):
            unit = gx.build_did_unit(dy, e)
            np.testing.assert_array_equal(sample.h1s[i], unit.h1)
            np.testing.assert_array_equal(sample.h2s[i], unit.h2)
        np.testing.assert_allclose(
            gx.estimate_group(sample).theta_hat, [1.0, 3.0], rtol=1e-12
        )

    def test_aux_schema_enforced(self, tmp_path):
        aux = _write(
            tmp_path / "aux.csv",
            "group_id,h2_11,h2_12,h2_21,h2_22\ng1,1.0,0.5,0.5,0.5\n",
        )
        designs = load_aux_designs(aux, 2, 1e-10)
        np.testing.assert_array_equal(designs["g1"].H2_pop, [[1, 0.5], [0.5, 0.5]])
        bad = _write(tmp_path / "bad.csv", "group_id,h2_11\ng1,1.0\n")
        with pytest.raises(ParseError):
            load_aux_designs(bad, 2, 1e-10)


class TestEstimateCommand:
    def test_noiseless_md_fit(self, fixture_dir):
        out = fixture_dir / "rep.json"
        cfg = _config(
            fixture_dir,
            method="md",
            io={"units": str(fixture_dir / "units.csv"), "policy": str(fixture_dir / "policy.csv")},
            design=_design(),
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        coefs = {c["name"]: c for c in report["coefficients"]}
        assert coefs["b_1"]["estimate"] == pytest.approx(2.0, abs=1e-10)
        assert coefs["alpha_2"]["estimate"] == pytest.approx(2.0, abs=1e-10)
        assert coefs["b_1"]["std_error"] == pytest.approx(0.0, abs=1e-10)
        assert report["selection"]["dropped"] == 0
        assert report["bias_bound"]["bound_value"] == 0.0

    def test_gmm_matches_on_constant_share_fixture(self, fixture_dir):
        out = fixture_dir / "rep.json"
        cfg = _config(
            fixture_dir,
            method="gmm",
            io={"units": str(fixture_dir / "units.csv"), "policy": str(fixture_dir / "policy.csv")},
            design=_design(),
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        coefs = {c["name"]: c for c in report["coefficients"]}
        assert coefs["b_1"]["estimate"] == pytest.approx(2.0, abs=1e-8)

    def test_md_alt_with_aux_file(self, fixture_dir):
        aux = _write(
            fixture_dir / "aux.csv",
            "group_id,h2_11,h2_12,h2_21,h2_22\n"
            "g1,1.0,0.5,0.5,0.5\ng2,1.0,0.5,0.5,0.5\ng3,1.0,0.5,0.5,0.5\n",
        )
        out = fixture_dir / "rep.json"
        cfg = _config(
            fixture_dir,
            method="md_alt",
            io={
                "units": str(fixture_dir / "units.csv"),
                "policy": str(fixture_dir / "policy.csv"),
                "aux": aux,
            },
            design=_design(),
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        # sample shares are exactly 0.5, so the known-probability route agrees
        coefs = {c["name"]: c for c in report["coefficients"]}
        assert coefs["b_1"]["estimate"] == pytest.approx(2.0, abs=1e-10)

    def test_dropped_group_surfaces_in_report(self, tmp_path):
        _write(
            tmp_path / "units.csv",
            "group_id,delta_y,e\n"
            "g1,1.0,0\ng1,3.0,1\n"
            "g2,1.0,0\ng2,2.0,0\n"
            "g3,1.0,0\ng3,7.0,1\n"
            "g4,0.5,0\ng4,6.5,1\n",
        )
        _write(tmp_path / "policy.csv", "group_id,w_1\ng1,0.0\ng2,1.0\ng3,2.0\ng4,1.0\n")
        out = tmp_path / "rep.json"
        cfg = _config(
            tmp_path,
            method="md",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
            design=_design(),
            report={"per_group": True},
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        assert report["selection"]["dropped"] == 1
        assert report["bias_bound"]["bound_value"] > 0
        rows = {r["group_id"]: r for r in report["groups"]}
        assert rows["g2"]["omega"] == 0 and rows["g2"]["theta_hat"] is None

    def test_tsls_method(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["group_id,delta_y,e,z"]
        wlines = ["group_id,w_1"]
        for g in range(12):
            w = g % 2
            wlines.append(f"g{g},{float(w)!r}")
            for _ in range(40):
                z = int(rng.random() < 0.5)
                e = z if rng.random() < 0.7 else 0
                dy = 0.5 + (1.0 + 0.5 * w) * e + 0.1 * rng.standard_normal()
                lines.append(f"g{g},{float(dy)!r},{e},{z}")
        _write(tmp_path / "units.csv", "\n".join(lines) + "\n")
        _write(tmp_path / "policy.csv", "\n".join(wlines) + "\n")
        out = tmp_path / "rep.json"
        cfg = _config(
            tmp_path,
            method="tsls",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        names = [c["name"] for c in report["coefficients"]]
        assert names == ["tau0", "beta"]


class TestExitCodes:
    def test_parse_error_is_one(self, tmp_path):
        units = _write(tmp_path / "u.csv", "group_id,delta_y\ng1,3.0\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        cfg = _config(tmp_path, method="md", io={"units": units, "policy": policy})
        assert main(["estimate", "--config", cfg, "--json-only"]) == 1

    def test_unknown_config_key_is_one(self, fixture_dir):
        cfg = _config(
            fixture_dir,
            method="md",
            io={"units": str(fixture_dir / "units.csv"), "policy": str(fixture_dir / "policy.csv")},
            bogus=1,
        )
        assert main(["estimate", "--config", cfg, "--json-only"]) == 1

    def test_degenerate_design_is_two(self, tmp_path):
        _write(
            tmp_path / "units.csv",
            "group_id,delta_y,e\ng1,1.0,0\ng1,2.0,0\ng2,1.5,0\ng2,2.5,0\n",
        )
        _write(tmp_path / "policy.csv", "group_id,w_1\ng1,0.0\ng2,1.0\n")
        cfg = _config(
            tmp_path,
            method="md",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
            design=_design(),
        )
        assert main(["estimate", "--config", cfg, "--json-only"]) == 2

    def test_missing_config_file_is_one(self):
        assert main(["estimate", "--config", "/nonexistent.json"]) == 1

    def test_unknown_scenario_is_one(self, tmp_path):
        cfg = _config(tmp_path, scenario={"name": "nope"})
        assert main(["simulate", "--config", cfg, "--json-only"]) == 1

    def test_undecodable_file_is_one(self, tmp_path):
        units = tmp_path / "u.csv"
        units.write_bytes(b"group_id,delta_y,e\ng1,3.0\xff,1\n")
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng1,0.0\n")
        cfg = _config(tmp_path, method="md", io={"units": str(units), "policy": policy})
        assert main(["estimate", "--config", cfg, "--json-only"]) == 1

    @pytest.mark.parametrize(
        "command, extra",
        [("estimate", {"method": m}) for m in ("md", "gmm", "tsls")] + [("diagnose", {})],
        ids=["md", "gmm", "tsls", "diagnose"],
    )
    @pytest.mark.parametrize(
        "g0", ["g0,1e308,0\ng0,1e308,1\n", "g0,1e200,1e200\ng0,1.0,0\n"],
        ids=["sum", "product"],
    )
    def test_overflowing_moments_are_one(self, tmp_path, capsys, command, extra, g0):
        # finite cells whose group sum, or z * delta_y product, overflows
        units = _write(
            tmp_path / "u.csv",
            "group_id,delta_y,e\n" + g0 + "g1,1.0,0\ng1,3.0,1\ng2,1.0,0\ng2,5.0,1\n"
            "g3,1.0,0\ng3,7.0,1\n",
        )
        policy = _write(tmp_path / "p.csv", "group_id,w_1\ng0,1.0\ng1,0.0\ng2,1.0\ng3,2.0\n")
        cfg = _config(tmp_path, io={"units": units, "policy": policy}, design=_design(), **extra)
        assert main([command, "--config", cfg, "--json-only"]) == 1
        err = capsys.readouterr().err
        assert f"{units}: " in err and "group 'g0'" in err


# (file, fault) pairs; a duplicate id is a fault only where ids are keys
_CELL_FAULTS = {"non_numeric": "abc", "inf": "inf", "nan": "nan", "empty_cell": ""}
_FAULTS = [
    (table, fault)
    for table in ("units", "policy", "aux")
    for fault in [*_CELL_FAULTS, "short", "extra", "empty_id", "duplicate"]
    if not (table == "units" and fault == "duplicate")
]


@st.composite
def _faulty_tables(draw):
    """Valid units, policy and aux tables, then one fault in one of them.

    Returns the tables (lists of string rows, header first), the faulty
    table's name and the data row (counting from 0) that holds the fault.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    extra_cols = draw(st.sampled_from([[], ["z"], ["weight"], ["z", "weight"]]))
    units = [["group_id", "delta_y", "e"] + extra_cols]
    for g, n in enumerate(sizes):
        for i in range(n):
            cells = {"z": str((i + 1) % 2), "weight": "2.0"}
            row = [f"g{g}", repr(0.5 * g + i), str(i % 2)]
            units.append(row + [cells[c] for c in extra_cols])
    groups = range(len(sizes))
    tables = {
        "units": units,
        "policy": [["group_id", "w_1"]] + [[f"g{g}", repr(float(g))] for g in groups],
        "aux": [["group_id", "h2_11", "h2_12", "h2_21", "h2_22"]]
        + [[f"g{g}", "1.0", "0.5", "0.5", "0.5"] for g in groups],
    }
    table, fault = draw(st.sampled_from(_FAULTS))
    rows = tables[table]
    r = draw(st.integers(0, len(rows) - 2))
    row = rows[r + 1]
    col = draw(st.integers(1, len(row) - 1))
    if fault in _CELL_FAULTS:
        row[col] = _CELL_FAULTS[fault]
    elif fault == "short":
        del row[-1]
    elif fault == "extra":
        row.append("1.0")
    elif fault == "empty_id":
        row[0] = draw(st.sampled_from(["", "  "]))
    else:
        rows.insert(r + 2, list(row))
        r += 1
    return tables, table, r


class TestMalformedInput:
    @given(_faulty_tables())
    @settings(max_examples=60, deadline=None)
    def test_one_fault_exits_one_and_names_the_row(self, case):
        tables, table, r = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, rows in tables.items():
                paths[name] = os.path.join(tmp, f"{name}.csv")
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write("".join(",".join(row) + "\n" for row in rows))
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"method": "md_alt", "io": paths, "design": _design()}, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["estimate", "--config", cfg, "--json-only"])
        assert code == 1, err.getvalue()
        assert f"{paths[table]}:{r + 2}:" in err.getvalue()


class TestSimulateCommand:
    def test_reduced_run_report_validates(self, tmp_path):
        out = tmp_path / "rep.json"
        cfg = _config(
            tmp_path,
            scenario={"name": "gmm_bias_demo", "G": 150},
            replications=4,
            estimators=["oracle", "md", "gmm"],
        )
        assert main(["simulate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        assert {s["estimator"] for s in report["mc_summaries"]} == {"oracle", "md", "gmm"}
        assert "gmm_plim_bias" in report["targets"]

    def test_export_round_trip_is_bit_identical(self, tmp_path):
        out = tmp_path / "rep.json"
        cfg = _config(
            tmp_path,
            name="sim.json",
            scenario={"name": "gmm_bias_demo", "G": 120},
            replications=1,
            estimators=["md"],
        )
        prefix = str(tmp_path / "dump")
        assert main(
            ["simulate", "--config", cfg, "--out", str(out), "--json-only",
             "--export-data", prefix]
        ) == 0
        _validated_report(out)

        est_out = tmp_path / "est.json"
        est_cfg = _config(
            tmp_path,
            name="est.json.cfg",
            method="md",
            io={"units": prefix + ".units.csv", "policy": prefix + ".policy.csv"},
            design=_design(),
        )
        assert main(["estimate", "--config", est_cfg, "--out", str(est_out), "--json-only"]) == 0
        report = _validated_report(est_out)

        from groupfx.simlab import load_preset
        from groupfx.simlab.dgp import simulate
        from groupfx.first_stage import estimate_arrays
        from groupfx.md import fit_md_arrays

        preset = load_preset("gmm_bias_demo", G=120)
        data = simulate(preset.cfg, 1)
        theta, omega = estimate_arrays(data.H1, data.H2)
        fit = fit_md_arrays(theta, omega, data.W, preset.spec)
        cli_b = [c["estimate"] for c in report["coefficients"] if c["name"] == "b_1"][0]
        assert cli_b == float(fit.basis_coefs[0])  # bitwise equality

    def test_seed_flag_overrides(self, tmp_path):
        reports = []
        for seed in (1, 1, 2):
            out = tmp_path / f"rep{len(reports)}.json"
            cfg = _config(
                tmp_path,
                name=f"sim{len(reports)}.json",
                scenario={"name": "gmm_bias_demo", "G": 100},
                replications=2,
                estimators=["md"],
            )
            assert main(
                ["simulate", "--config", cfg, "--out", str(out), "--json-only",
                 "--seed", str(seed)]
            ) == 0
            reports.append(_validated_report(out))
        assert reports[0]["mc_summaries"][0]["mean"] == reports[1]["mc_summaries"][0]["mean"]
        assert reports[0]["mc_summaries"][0]["mean"] != reports[2]["mc_summaries"][0]["mean"]


class TestEstimateRoundTrip:
    """``estimate`` on an export equals the estimator table on the arrays."""

    @pytest.mark.parametrize(
        "method, preset_name, G",
        [
            ("md_alt", "selection_demo", 150),
            ("gmm", "gmm_bias_demo", 120),
            ("tsls", "iv_compliance_demo", 20),
        ],
    )
    def test_bit_identical(self, tmp_path, method, preset_name, G):
        from groupfx.cli import export_units
        from groupfx.estimators import ESTIMATORS, GroupArrays
        from groupfx.simlab import load_preset, simulate

        preset = load_preset(preset_name, G=G)
        data = simulate(preset.cfg, 1)
        prefix = str(tmp_path / "dump")
        units, policy = export_units(data, prefix)
        aux_lines = ["group_id,h2_11,h2_12,h2_21,h2_22"] + [
            ",".join([gid] + [repr(float(v)) for v in data.H2_pop[g].ravel()])
            for g, gid in enumerate(data.group_ids())
        ]
        aux = _write(tmp_path / "aux.csv", "\n".join(aux_lines) + "\n")
        out = tmp_path / "rep.json"
        cfg = _config(
            tmp_path,
            method=method,
            io={"units": units, "policy": policy, "aux": aux},
            design=_design(),
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)

        arrays = GroupArrays(data.H1, data.H2, data.n, data.W, H2_pop=data.H2_pop)
        ref = ESTIMATORS[method].run(arrays, preset.spec, 1e-10)
        expected = [
            {"name": name, "estimate": float(value), "std_error": float(se)}
            for name, value, se in ref.rows
        ]
        assert report["coefficients"] == expected  # bitwise equality

    @pytest.mark.parametrize(
        "preset_name, G", [("composition_demo", 40), ("iv_compliance_demo", 4)]
    )
    def test_ingest_reproduces_dgp_arrays(self, tmp_path, preset_name, G):
        # two policy columns, and a z column, on top of the cases above
        from groupfx.cli import export_units
        from groupfx.moments import stack_averages
        from groupfx.simlab import load_preset, simulate

        data = simulate(load_preset(preset_name, G=G).cfg, 1)
        samples, W, n, _ = ingest_units(*export_units(data, str(tmp_path / "dump")))
        H1, H2 = stack_averages(samples)
        for got, want in ((W, data.W), (H1, data.H1), (H2, data.H2), (n, data.n)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDiagnoseCommand:
    def test_clean_dataset(self, fixture_dir):
        out = fixture_dir / "rep.json"
        cfg = _config(
            fixture_dir,
            io={"units": str(fixture_dir / "units.csv"), "policy": str(fixture_dir / "policy.csv")},
            design=_design(),
        )
        assert main(["diagnose", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        report = _validated_report(out)
        assert report["selection"]["flag"] is False
        assert report["bias_bound"]["bound_value"] == 0.0
        assert report["bias_bound"]["residual_source"] == "proxy"
        assert report["conditioning"]["min_smallest_singular_value"] > 0

    def test_json_only_suppresses_table(self, fixture_dir, capsys):
        cfg = _config(
            fixture_dir,
            io={"units": str(fixture_dir / "units.csv"), "policy": str(fixture_dir / "policy.csv")},
            design=_design(),
        )
        assert main(["diagnose", "--config", cfg, "--json-only"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["diagnose", "--config", cfg]) == 0
        assert "groups:" in capsys.readouterr().out


    def test_per_group_rows_match_estimate(self, tmp_path):
        # g2 has no event, so the first stage drops it
        _write(
            tmp_path / "units.csv",
            "group_id,delta_y,e\n"
            "g1,1.0,0\ng1,3.0,1\n"
            "g2,1.0,0\ng2,2.0,0\n"
            "g3,1.0,0\ng3,7.0,1\n"
            "g4,0.5,0\ng4,6.5,1\n",
        )
        _write(tmp_path / "policy.csv", "group_id,w_1\ng1,0.0\ng2,1.0\ng3,2.0\ng4,1.0\n")
        io = {"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")}
        reports = {}
        for command, extra in (("estimate", {"method": "md"}), ("diagnose", {})):
            out = tmp_path / f"{command}.json"
            cfg = _config(
                tmp_path, f"{command}.cfg.json", io=io, design=_design(),
                report={"per_group": True}, **extra,
            )
            assert main([command, "--config", cfg, "--out", str(out), "--json-only"]) == 0
            reports[command] = _validated_report(out)
        est, diag = reports["estimate"], reports["diagnose"]
        assert diag["selection"]["dropped"] == 1
        assert diag["groups"] == [dict(r, residual=None) for r in est["groups"]]
        assert diag["bias_bound"] == est["bias_bound"]


class TestWeightModes:
    def _base(self, tmp_path, n2=4):
        # group g2 gets extra units so size weighting is distinguishable
        rows = ["group_id,delta_y,e", "g1,1.0,0", "g1,3.0,1"]
        rows += [f"g2,{float(1.0 + 0.1 * i)!r},{i % 2}" for i in range(n2)]
        rows += ["g3,1.0,0", "g3,6.0,1"]
        _write(tmp_path / "units.csv", "\n".join(rows) + "\n")
        _write(tmp_path / "policy.csv", "group_id,w_1\ng1,0.0\ng2,1.0\ng3,2.0\n")

    def test_group_size_weights(self, tmp_path):
        self._base(tmp_path)
        out = tmp_path / "r.json"
        cfg = _config(
            tmp_path,
            method="md",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
            design={**_design(), "weights": "group_size"},
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        weighted = _validated_report(out)
        cfg_u = _config(
            tmp_path,
            name="cfg_u.json",
            method="md",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
            design=_design(),
        )
        out_u = tmp_path / "ru.json"
        assert main(["estimate", "--config", cfg_u, "--out", str(out_u), "--json-only"]) == 0
        unweighted = _validated_report(out_u)
        b_w = [c["estimate"] for c in weighted["coefficients"] if c["name"] == "b_1"][0]
        b_u = [c["estimate"] for c in unweighted["coefficients"] if c["name"] == "b_1"][0]
        assert b_w != b_u

    def test_file_weights_require_column(self, tmp_path):
        self._base(tmp_path)
        cfg = _config(
            tmp_path,
            method="md",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
            design={**_design(), "weights": "file"},
        )
        assert main(["estimate", "--config", cfg, "--json-only"]) == 1

    def test_file_weights_used(self, tmp_path):
        _write(
            tmp_path / "units.csv",
            "group_id,delta_y,e,weight\n"
            "g1,1.0,0,1.0\ng1,3.0,1,1.0\n"
            "g2,1.0,0,5.0\ng2,5.5,1,5.0\n"
            "g3,1.0,0,1.0\ng3,6.0,1,1.0\n",
        )
        _write(tmp_path / "policy.csv", "group_id,w_1\ng1,0.0\ng2,1.0\ng3,2.0\n")
        out = tmp_path / "r.json"
        cfg = _config(
            tmp_path,
            method="md",
            io={"units": str(tmp_path / "units.csv"), "policy": str(tmp_path / "policy.csv")},
            design={**_design(), "weights": "file"},
        )
        assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
        _validated_report(out)

    def test_interleaved_rows_match_grouped_rows(self, tmp_path):
        # a group's rows need not be consecutive; within a group, file order counts
        from groupfx.cli import export_units
        from groupfx.simlab import load_preset, simulate

        data = simulate(load_preset("selection_demo", G=30).cfg, 1)
        units, policy = export_units(data, str(tmp_path / "dump"))
        header, *rows = open(units).read().splitlines()
        groups = {}
        for row in rows:
            groups.setdefault(row.split(",")[0], []).append(row)
        blocks = [[f"{r},{g % 3 + 1}.0" for r in rs] for g, rs in enumerate(groups.values())]
        layouts = {
            "grouped": [r for block in blocks for r in block],
            "interleaved": [r for layer in itertools.zip_longest(*blocks) for r in layer if r],
        }
        assert layouts["grouped"] != layouts["interleaved"]
        reports = {}
        for name, lines in layouts.items():
            path = _write(tmp_path / f"{name}.csv", "\n".join([header + ",weight", *lines]) + "\n")
            out = tmp_path / f"{name}.json"
            cfg = _config(
                tmp_path,
                name=f"{name}.cfg.json",
                method="md",
                io={"units": path, "policy": policy},
                design={**_design(), "weights": "file"},
                report={"per_group": True},
            )
            assert main(["estimate", "--config", cfg, "--out", str(out), "--json-only"]) == 0
            reports[name] = _validated_report(out)
            del reports[name]["timing"], reports[name]["config"]
        assert reports["grouped"] == reports["interleaved"]
