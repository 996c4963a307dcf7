"""Config parsing, CSV output, determinism, and the console entry point."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoint import (
    Branch,
    ConfigError,
    DefectKind,
    DefectSpec,
    Device,
    FreeSegment,
    ParameterDomainError,
    PeriodicComb,
    flux_defect,
    mass_jump_defect,
    product_defect,
    r_flip_defect,
    rtilde_flip_defect,
    sound_slope,
    x1_defect,
    x4_defect,
)
from spinpoint.cli import (
    RunConfig,
    SweepSpec,
    Tolerances,
    load_config,
    main,
    parse_config,
    run,
    serialize_config,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def make_config(**overrides):
    doc = {"schema_version": 1}
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_scatter_config_fills_defaults():
    text = make_config(
        command="scatter",
        defect={"kind": "r_x4", "r": 0.5},
        sweep={"k_min": 0.1, "k_max": 10, "points": 100},
    )
    config = parse_config(text)
    assert config.command == "scatter"
    assert config.defect.value == 0.5
    assert config.sweep == SweepSpec(0.1, 10.0, 100, "log")
    assert config.tolerances == Tolerances()
    assert config.incident is None


def test_unknown_top_level_key_rejected():
    text = make_config(command="scatter", defect={"kind": "x1", "x1": 1.0}, bogus=1)
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(text)


def test_unknown_defect_key_rejected():
    text = make_config(command="check", defect={"kind": "x1", "x1": 1.0, "r": 2.0})
    with pytest.raises(ConfigError, match="'r'"):
        parse_config(text)


def test_negative_free_length_names_element_index():
    text = make_config(
        command="device",
        device={"elements": [{"kind": "r_x4", "r": 0.5}, {"free": -1.0}]},
    )
    with pytest.raises(ConfigError, match=r"elements\[1\]"):
        parse_config(text)


def test_negative_mu_propagates_parameter_domain_error():
    text = make_config(command="check", defect={"kind": "mass_jump", "mu": -1.0})
    with pytest.raises(ParameterDomainError):
        parse_config(text)


def test_parse_error_reports_line_and_column():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"schema_version": 1,\n  "command": scatter}')


def test_sweep_validation():
    base = dict(command="check", defect={"kind": "x1", "x1": 1.0})
    with pytest.raises(ConfigError, match="k_min"):
        parse_config(make_config(**base, sweep={"k_min": -1.0}))
    with pytest.raises(ConfigError, match="points"):
        parse_config(make_config(**base, sweep={"points": 1}))
    with pytest.raises(ConfigError, match="spacing"):
        parse_config(make_config(**base, sweep={"spacing": "cubic"}))


def test_schema_version_required_and_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(json.dumps({"command": "check", "defect": {"kind": "x1", "x1": 1}}))
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(make_config(schema_version=99, command="check", defect={"kind": "x1", "x1": 1}))
    with pytest.raises(ConfigError, match="schema_version True"):
        parse_config(make_config(schema_version=True, command="check", defect={"kind": "x1", "x1": 1}))


def test_main_rejects_float_schema_version(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(schema_version=1.0, command="check", defect={"kind": "x1", "x1": 1}))
    assert main(["check", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unsupported schema_version 1.0; this build reads 1\n"


def test_run_rejects_unknown_command():
    with pytest.raises(ConfigError, match="unknown command 'plot'"):
        run(RunConfig("plot"))


def test_run_rejects_config_without_its_section():
    with pytest.raises(ConfigError, match="missing required key 'defect' for command 'scatter'"):
        run(RunConfig("scatter"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Tolerances(bloch=-1.0), r"^key 'bloch' in tolerances must be > 0$"),
        (lambda: Tolerances(transfer=math.inf), "^key 'transfer' in tolerances must be a finite"),
        (lambda: SweepSpec(points=2.5), r"^key 'points' in sweep must be an integer$"),
        (lambda: SweepSpec(k_max=math.inf), "^key 'k_max' in sweep must be a finite number$"),
        (
            lambda: RunConfig("device", device=Device(()), incident="bogus"),
            "^key 'incident' must be one of .*, got 'bogus'$",
        ),
    ],
    ids=["tolerance_negative", "tolerance_infinite", "points_float", "k_max_infinite", "incident"],
)
def test_hand_built_records_check_themselves(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


X1 = {"defect": x1_defect(1.0)}
EMPTY_COMB = PeriodicComb(Device(()))


@pytest.mark.parametrize(
    "command, fields, message",
    [
        ("scatter", {**X1, "sweep": {"points": 5}}, "^key 'sweep' .* a SweepSpec, got dict$"),
        ("scatter", {**X1, "tolerances": {}}, "^key 'tolerances' .* a Tolerances, got dict$"),
        ("device", {"device": [FreeSegment(1.0)]}, "^key 'device' .* a Device, got list$"),
        ("check", {"defect": "x1"}, "^key 'defect' in config must be a DefectSpec, got str$"),
        ("bands", {"comb": Device(())}, "^key 'comb' .* a PeriodicComb, got Device$"),
        ("scatter", {**X1, "incident": "left_up"}, "^unknown key 'incident' in config$"),
        ("scatter", {**X1, "device": Device(())}, "^unknown key 'device' in config$"),
        ("check", {**X1, "comb": EMPTY_COMB}, "^unknown key 'comb' in config$"),
        ("bands", {"comb": EMPTY_COMB, **X1}, "^unknown key 'defect' in config$"),
    ],
    ids=[
        "sweep_dict",
        "tolerances_dict",
        "device_list",
        "defect_str",
        "comb_device",
        "scatter_incident",
        "scatter_device",
        "check_comb",
        "bands_defect",
    ],
)
def test_run_config_owns_its_fields_and_their_types(command, fields, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(command, **fields)


def test_hand_built_records_normalise_numbers():
    # JSON-ready types, so serialize_config writes the same bytes as for a parsed config
    sweep = SweepSpec(1, 5, np.int64(5))
    assert (type(sweep.k_min), type(sweep.k_max), type(sweep.points)) == (float, float, int)
    assert type(Tolerances(current=1).current) is float


def test_hand_built_device_config_defaults_incident(tmp_path):
    config = RunConfig("device", device=Device((FreeSegment(1.0),)), sweep=SweepSpec(points=3))
    assert config.incident == "left_up"
    assert parse_config(serialize_config(config)) == config
    assert run(config, out=tmp_path / "out.csv") == 0


def test_command_section_mismatch_rejected():
    text = make_config(command="scatter", device={"elements": []})
    with pytest.raises(ConfigError):
        parse_config(text)


def test_round_trip_all_commands():
    docs = [
        make_config(command="check", defect={"kind": "product", "factors": [
            {"kind": "rtilde_x1", "r_tilde": 0.2},
            {"kind": "r_x4", "r": 0.4},
            {"kind": "mass_jump", "mu": 2.0},
        ]}),
        make_config(command="scatter", defect={"kind": "r_x4", "r": 0.5}),
        make_config(
            command="device",
            device={"elements": [{"kind": "r_x4", "r": 0.1}, {"free": 1.0}, {"kind": "r_x4", "r": 0.1}]},
            incident="left_down",
            sweep={"k_min": 0.5, "k_max": 2.0, "points": 10, "spacing": "linear"},
        ),
        make_config(command="bands", comb={"period": 1.0, "cell": [{"kind": "r_x4", "r": 1.0}]}),
    ]
    for text in docs:
        config = parse_config(text)
        assert parse_config(serialize_config(config)) == config


HELPERS = {
    DefectKind.X1: x1_defect,
    DefectKind.X4: x4_defect,
    DefectKind.MASS_JUMP: mass_jump_defect,
    DefectKind.FLUX: flux_defect,
    DefectKind.R_FLIP: r_flip_defect,
    DefectKind.RTILDE_FLIP: rtilde_flip_defect,
}


def _value(kind):
    if kind is DefectKind.MASS_JUMP:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return st.floats(allow_nan=False, allow_infinity=False)


# (hand-built spec, helper-built spec) pairs: every kind, and products nested two deep
_leaf = st.sampled_from(list(HELPERS)).flatmap(
    lambda kind: _value(kind).map(lambda v: (DefectSpec(kind, v), HELPERS[kind](v)))
)


def _product(parts):
    return st.lists(parts, min_size=1, max_size=3).map(
        lambda pairs: (
            DefectSpec(DefectKind.PRODUCT, factors=tuple(hand for hand, _ in pairs)),
            product_defect(helper for _, helper in pairs),
        )
    )


@given(st.one_of(_leaf, _product(_leaf), _product(st.one_of(_leaf, _product(_leaf)))))
@settings(max_examples=200)
def test_equal_defects_are_equal_records_and_round_trip(pair):
    spec, built = pair
    assert spec == built and hash(spec) == hash(built)
    config = RunConfig("check", defect=spec)
    assert parse_config(serialize_config(config)) == config


# sha256 of serialize_config(parse_config(text)) for every example config;
# a change of key order, indentation or float text fails here.
CONFIG_SERIALIZED_SHA256 = {
    "check": "6b0a5aa9aae47b87c873a709de3922d8a19eadee1331e983e69e4106ae8ee9da",
    "scatter": "942dde16cd96f7858282428ebac9716e3abd4016e4bace366227236ea479ba03",
    "device": "5ce90c9c72b37098eda93a3f4a7c3183c9f6f92f0d042e1f4feb592692efc12d",
    "bands": "36d34c9231f2ca6a49078f6b7c8a3dbed0bc42461eb9d6881d99ff21f654c201",
}


@pytest.mark.parametrize("command", sorted(CONFIG_SERIALIZED_SHA256))
def test_example_config_serialization_bytes_are_pinned(command):
    text = serialize_config(load_config(CONFIG_DIR / f"{command}.json"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CONFIG_SERIALIZED_SHA256[command]


def test_check_report_content(capsys, tmp_path):
    config = parse_config(make_config(command="check", defect={"kind": "r_x4", "r": 0.5}))
    out_file = tmp_path / "report.txt"
    assert run(config, out=out_file) == 0
    captured = capsys.readouterr().out
    assert "X: pass, Y: pass, Z: pass" in captured
    assert out_file.read_text() == captured
    for line in captured.splitlines():
        if line.startswith(("X:", "Y:", "Z:")) and "residual" in line:
            residual = float(line.split("residual")[1].strip(" ()"))
            assert residual < 1e-13


def test_check_reports_failures(capsys):
    config = parse_config(make_config(command="check", defect={"kind": "x1", "x1": 1.0}))
    run(config)
    captured = capsys.readouterr().out
    assert "X: pass, Y: FAIL, Z: FAIL" in captured


def test_device_csv_default_sweep_row_count_and_sums(tmp_path):
    config = parse_config(
        make_config(
            command="device",
            device={"elements": [{"kind": "r_x4", "r": 0.1}, {"free": 1.0}, {"kind": "r_x4", "r": 0.1}]},
        )
    )
    out = tmp_path / "spectrum.csv"
    run(config, out=out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# spinpoint-csv v1 device"
    assert lines[1].startswith("k,E,p_left_up")
    rows = lines[2:]
    assert len(rows) == 1000
    for row in rows[::97]:
        fields = row.split(",")
        probs = [float(x) for x in fields[2:6]]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-8)
        assert fields[-1] == "0"


def test_scatter_csv_shape(tmp_path):
    config = parse_config(
        make_config(
            command="scatter",
            defect={"kind": "r_x4", "r": 0.5},
            sweep={"k_min": 0.1, "k_max": 10.0, "points": 25},
        )
    )
    out = tmp_path / "smatrix.csv"
    run(config, out=out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# spinpoint-csv v1 scatter"
    header = lines[1].split(",")
    assert len(header) == 2 + 32 + 2
    assert len(lines) == 2 + 25
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert float(first[1]) == pytest.approx(0.01)


def test_bands_csv_massless_slope(tmp_path):
    config = parse_config(
        make_config(
            command="bands",
            comb={"period": 1.0, "cell": [{"kind": "r_x4", "r": 1.0}]},
            sweep={"k_min": 0.01, "k_max": 0.58, "points": 150, "spacing": "linear"},
        )
    )
    out = tmp_path / "bands.csv"
    run(config, out=out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# spinpoint-csv v1 bands"
    assert lines[1] == "k,E,q,branch_id,lambda_residual"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    branches = []
    for bid in sorted(set(data[:, 3].astype(int))):
        sel = data[:, 3].astype(int) == bid
        branches.append(Branch(bid, data[sel, 0], data[sel, 2], data[sel, 1]))
    best = max(
        (b for b in branches if len(b.q) >= 10),
        key=lambda b: float(np.mean(b.energy / b.q)),
    )
    fit = sound_slope(best, q_window=(0.0, 0.1))
    assert fit.slope == pytest.approx(2 * math.sqrt(3), rel=5e-3)


def test_output_determinism_all_commands(tmp_path):
    cases = {
        "check": make_config(command="check", defect={"kind": "r_x4", "r": 0.5}),
        "scatter": make_config(
            command="scatter",
            defect={"kind": "rtilde_x1", "r_tilde": 0.7},
            sweep={"k_min": 0.2, "k_max": 8.0, "points": 40},
        ),
        "device": make_config(
            command="device",
            device={"elements": [{"kind": "r_x4", "r": 0.3}, {"free": 0.8}, {"kind": "x1", "x1": 0.5}]},
            sweep={"k_min": 0.1, "k_max": 12.0, "points": 60},
        ),
        "bands": make_config(
            command="bands",
            comb={"period": 1.0, "cell": [{"kind": "r_x4", "r": 0.5}]},
            sweep={"k_min": 0.1, "k_max": 6.0, "points": 50, "spacing": "linear"},
        ),
    }
    for name, text in cases.items():
        config = parse_config(text)
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        run(config, out=first)
        run(config, out=second)
        assert first.read_bytes() == second.read_bytes()


# sha256 of the output of every example config; a changed byte in any
# CSV (or in the check report) fails here.
CONFIG_OUTPUT_SHA256 = {
    "check": "e31d7cc61dd451f00bb0e8251e1589a43dcd505fcff042211c8949972286ffad",
    "scatter": "e5803781db852370f9445f65101aa7471f38d9b911f9d139165ddc8d11c6ac39",
    "device": "07bd892794e838c0aa0375bd9b84d6462556acb7507dd703b4ad46c211ff891b",
    "bands": "22c52c4ec1b12cecd93ace364134bc4235715e8c2dc6955cce986fc630b7f2d2",
}


@pytest.mark.parametrize("command", sorted(CONFIG_OUTPUT_SHA256))
def test_example_config_output_bytes_are_pinned(command, tmp_path, capsys):
    out = tmp_path / f"{command}.out"
    assert main([command, "--config", str(CONFIG_DIR / f"{command}.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONFIG_OUTPUT_SHA256[command]


def test_main_command_mismatch_fails(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="check", defect={"kind": "x1", "x1": 1.0}))
    code = main(["scatter", "--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_reports_overflowing_device(tmp_path, capsys):
    cell = [{"kind": "x1", "x1": 20.0}, {"free": 1.0}, {"kind": "r_x4", "r": 0.3}, {"free": 0.5}]
    path = tmp_path / "cfg.json"
    path.write_text(
        make_config(
            command="device",
            device={"elements": cell * 100},
            sweep={"k_min": 0.01, "k_max": 20.0, "points": 200, "spacing": "log"},
        )
    )
    code = main(["device", "--config", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: transfer matrix overflowed at k=0.01;")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_main_reports_overflowing_comb(tmp_path, capsys):
    cell = [{"kind": "x1", "x1": 1e3}, {"kind": "x4", "x4": 1e3}] * 60
    path = tmp_path / "cfg.json"
    path.write_text(
        make_config(
            command="bands",
            comb={"period": 1.0, "cell": cell},
            sweep={"k_min": 0.5, "k_max": 3.0, "points": 5, "spacing": "linear"},
        )
    )
    code = main(["bands", "--config", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: transfer matrix overflowed at k=0.5;")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("scatter", {"defect": {"kind": "r_x4", "r": 0.5}, "sweep": {"k_max": math.inf}}),
        ("device", {"device": {"elements": [{"kind": "x1", "x1": math.nan}]}}),
        ("device", {"device": {"elements": [{"free": math.inf}]}}),
        ("check", {"defect": {"kind": "x1", "x1": 10**400}}),
    ],
    ids=["k_max_infinity", "x1_nan", "free_infinity", "x1_beyond_float"],
)
def test_main_rejects_non_finite_numbers(command, doc, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command=command, **doc))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key ") and err.endswith("must be a finite number\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, doc, err",
    [
        (
            "bands",
            {"comb": {"cell": []}, "tolerances": {"bloch": -1.0}},
            "error: key 'bloch' in tolerances must be > 0\n",
        ),
        (
            "scatter",
            {"defect": {"kind": "x1", "x1": 1.0}, "tolerances": {"transfer": 0}},
            "error: key 'transfer' in tolerances must be > 0\n",
        ),
        (
            "device",
            {"device": {"elements": []}, "incident": "bogus"},
            "error: key 'incident' must be one of ('left_up', 'left_down', 'right_up', "
            "'right_down'), got 'bogus'\n",
        ),
    ],
    ids=["bloch_negative", "transfer_zero", "incident_unknown"],
)
def test_main_rejects_bad_tolerance_and_incident(command, doc, err, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command=command, **doc))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("case", ["product_600_deep", "brackets_100000"])
def test_main_rejects_too_deeply_nested_config(case, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if case == "brackets_100000":
        path.write_text("[" * 100000)
    else:
        # json.dumps would recurse as deep as json.loads, so the text is built by hand.
        defect = '{"kind": "product", "factors": [' * 600 + '{"kind": "x1", "x1": 1}' + "]}" * 600
        path.write_text('{"schema_version": 1, "command": "check", "defect": ' + defect + "}")
    assert main(["check", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config is nested too deeply\n"


def test_sweep_points_beyond_array_size_rejected(tmp_path, capsys):
    text = make_config(command="scatter", defect={"kind": "r_x4", "r": 0.5}, sweep={"points": 10**20})
    with pytest.raises(ConfigError, match=r"key 'points' in sweep must be <= \d+$"):
        parse_config(text)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["scatter", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'points' in sweep must be <= ")
    assert err.count("\n") == 1


NUMPY_ALLOCATION_MESSAGE = "Unable to allocate 72.8 TiB for an array"


@pytest.mark.parametrize(
    "exc, err",
    [
        (MemoryError(NUMPY_ALLOCATION_MESSAGE), f"error: {NUMPY_ALLOCATION_MESSAGE}\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy_message", "bare"],
)
def test_main_reports_memory_error(exc, err, tmp_path, capsys, monkeypatch):
    def grid(*args):
        raise exc

    monkeypatch.setattr("spinpoint.device.SweepSpec.grid", grid)
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="scatter", defect={"kind": "r_x4", "r": 0.5}))
    out = tmp_path / "out.csv"
    assert main(["scatter", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing_config", "config_not_utf8", "out_dir_missing"])
def test_main_reports_file_errors(case, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    if case == "config_not_utf8":
        path.write_bytes(b"\xff\xfe")
    elif case == "out_dir_missing":
        path.write_text(make_config(command="scatter", defect={"kind": "r_x4", "r": 0.5}))
        out = tmp_path / "missing" / "out.csv"
    argv = ["scatter", "--config", str(path), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ")
    assert err.count("\n") == 1


def test_main_happy_path(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="check", defect={"kind": "r_x4", "r": 0.5}))
    assert main(["check", "--config", str(path)]) == 0
    assert "pass" in capsys.readouterr().out


def test_module_invocation_subprocess(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="check", defect={"kind": "r_x4", "r": 0.5}))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "spinpoint", "check", "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "X: pass, Y: pass, Z: pass" in proc.stdout


def test_fresh_import_loads_no_scipy():
    # every command starts a fresh interpreter; numpy is the only runtime dependency
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import spinpoint, spinpoint.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_load_config_equals_parse(tmp_path):
    text = make_config(command="check", defect={"kind": "flux", "phi": 0.5})
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert load_config(path) == parse_config(text)


def test_serialize_starts_with_schema_version():
    config = parse_config(make_config(command="check", defect={"kind": "x1", "x1": 1.0}))
    doc = json.loads(serialize_config(config))
    assert doc["schema_version"] == 1
