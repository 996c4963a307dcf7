"""Config parsing, CSV output, determinism, and the console entry point."""

import hashlib
import inspect
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
    PeriodicComb,
    channel_probabilities,
    conserves_currents,
    dispersion,
    flux_defect,
    mass_jump_defect,
    product_defect,
    r_flip_defect,
    rtilde_flip_defect,
    sound_slope,
    spectrum,
    transfer_to_scattering,
    x1_defect,
    x4_defect,
)
from spinpoint.cli import (
    _CSV_BATCH,
    RunConfig,
    SweepSpec,
    Tolerances,
    _column_text,
    _csv,
    _sweep_text,
    load_config,
    main,
    parse_config,
    run,
    serialize_config,
)
import spinpoint.extensions as extensions_mod

from matching_oracle import smatrix_by_matching

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


def test_library_defaults_are_the_config_defaults():
    # a library call and a config without the section gate alike
    assert Tolerances is extensions_mod.Tolerances
    gates = [
        (conserves_currents, "tol", "current"),
        (transfer_to_scattering, "conservation_tol", "transfer"),
        (spectrum, "conservation_tol", "transfer"),
        (dispersion, "bloch_tol", "bloch"),
    ]
    for function, keyword, field in gates:
        default = inspect.signature(function).parameters[keyword].default
        assert default == getattr(Tolerances(), field), function.__name__


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
    message = r"^defect: parameter 'mu' of a mass_jump defect must be > 0, got -1\.0$"
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


X1_DOC = {"kind": "x1", "x1": 1.0}


def device_config(*elements):
    return make_config(command="device", device={"elements": [X1_DOC, *elements]})


def comb_config(period, *cell):
    return make_config(command="bands", comb={"period": period, "cell": list(cell)})


@pytest.mark.parametrize(
    "text, path",
    [
        (device_config({"kind": "mass_jump", "mu": 0}), "device.elements[1]"),
        (comb_config(-1.0, X1_DOC), "comb"),
        (comb_config(1.0, X1_DOC, {"free": 0.5}, {"free": 0.75}), "comb"),
        (device_config({"free": -1}), "device.elements[1]"),
        (device_config({"kind": "x1", "x1": math.nan}), "device.elements[1]"),
        (comb_config(1.0, {"kind": "x1", "x1": "0.5"}), "comb.cell[0]"),
        (make_config(command="check", defect={"kind": "bogus"}), "defect"),
        (make_config(command="check", defect={"kind": "product", "factors": []}), "defect"),
        (
            device_config({"kind": "product", "factors": [{"kind": "r_x4", "r": True}]}),
            "device.elements[1].factors[0]",
        ),
    ],
    ids=[
        "mu_zero",
        "period_negative",
        "cell_longer_than_period",
        "free_negative",
        "x1_nan",
        "x1_string",
        "unknown_kind",
        "factors_empty",
        "factor_nested",
    ],
)
def test_element_errors_start_with_their_json_path(text, path):
    # the records own every element rule; the reader only adds where the element sits
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(f"{path}: ")


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
        (lambda: Tolerances(bloch=-1.0), r"^key 'bloch' in tolerances must be > 0, got -1\.0$"),
        (lambda: Tolerances(transfer=math.inf), "^key 'transfer' in tolerances must be a finite"),
        (lambda: SweepSpec(points=2.5), r"^key 'points' in sweep must be an integer$"),
        (lambda: SweepSpec(k_max=math.inf), "^key 'k_max' in sweep must be a finite number$"),
        (
            lambda: SweepSpec(1e-310, 1.0, 5),
            r"^key 'k_min' in sweep must be >= 2\.2250738585072014e-308, the smallest normal",
        ),
        (
            lambda: SweepSpec(k_max=1e200),
            r"^key 'k_max' in sweep must be <= 1\.3407807929942596e\+154, beyond which k\^2",
        ),
        (lambda: SweepSpec(2, 1), "^key 'k_min' must be < 'k_max' in sweep$"),
        (
            lambda: RunConfig("device", device=Device(()), incident="bogus"),
            "^key 'incident' must be one of .*, got 'bogus'$",
        ),
        # the config reader's own shape rules, before any record is built
        (lambda: parse_config("[]"), "^config must be an object, got list$"),
        (lambda: parse_config(make_config()), "^missing required key 'command' in config$"),
        (
            lambda: parse_config(make_config(command="check", defect=5)),
            "^defect must be an object, got int$",
        ),
        (
            lambda: parse_config(make_config(command="check", defect={"kind": "x1"})),
            "^missing required key 'x1' in defect$",
        ),
        (
            lambda: parse_config(make_config(command="device", device={"elements": 5})),
            "^key 'elements' in device must be a list$",
        ),
    ],
    ids=[
        "tolerance_negative",
        "tolerance_infinite",
        "points_float",
        "k_max_infinite",
        "k_min_subnormal",
        "k_max_energy_overflow",
        "k_min_not_below_k_max",
        "incident",
        "config_list",
        "config_without_command",
        "defect_int",
        "defect_without_parameter",
        "elements_int",
    ],
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
    "scatter": "84e21bbad9c892dc5f30d5c32d89ab1f75f8b08cdaf8f7e9e49afe17d3819f8b",
    "device": "5c4388b42b972134ffdfc537ead9ed93c558938de9d364f5bc4b8fb8d5bff491",
    "bands": "2f5eca13bfb97583e69c8fc4d5d89bff302151c4190de9068c4ac2f980e38859",
}


@pytest.mark.parametrize("command", sorted(CONFIG_OUTPUT_SHA256))
def test_example_config_output_bytes_are_pinned(command, tmp_path, capsys):
    out = tmp_path / f"{command}.out"
    assert main([command, "--config", str(CONFIG_DIR / f"{command}.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONFIG_OUTPUT_SHA256[command]


def command_text(config, path):
    run(config, out=path)
    return path.read_text(encoding="utf-8")


def per_field_rows(config):
    """The rows of a scatter, device or bands CSV with every field formatted on its own by
    ``repr``."""
    if config.command == "bands":
        diagram = dispersion(config.comb, config.sweep.grid(), bloch_tol=config.tolerances.bloch)
        columns = [diagram.k, diagram.energy, diagram.q, diagram.branch_id, diagram.lambda_residual]
    else:
        spec = Device((config.defect,)) if config.command == "scatter" else config.device
        table = spectrum(spec, config.sweep.grid(), conservation_tol=config.tolerances.transfer)
        if config.command == "scatter":
            parts = np.stack([table.smatrix.real, table.smatrix.imag], -1)
            values = parts.reshape(len(table), 32).T
        else:
            values = channel_probabilities(table.smatrix, config.incident).T
        singular = table.singular.astype(int)
        columns = [table.k, table.energy, *values, table.unitarity_residual, singular]
    return [",".join(map(repr, row)) for row in zip(*(col.tolist() for col in columns))]


def assert_same_lines(lines, expected):
    """``lines == expected``, naming the first differing line (a full diff takes minutes)."""
    for i, (line, want) in enumerate(zip(lines, expected)):
        assert line == want, f"line {i}"
    assert len(lines) == len(expected)


def csv_lines(text):
    """The lines of a CSV text, with the empty last one, so equal lines mean equal bytes."""
    return text.split("\n")


@pytest.mark.parametrize("command", ["scatter", "device", "bands"])
def test_sweep_text_cold_warm_and_per_field_agree(command, tmp_path):
    # the k and E text comes from the cache on the warm run; no sha256 pin, so the
    # comparison holds on any BLAS build
    config = load_config(CONFIG_DIR / f"{command}.json")
    _column_text.cache_clear()
    cold = command_text(config, tmp_path / "cold.csv")
    assert _column_text.cache_info().misses == 2
    warm = command_text(config, tmp_path / "warm.csv")
    assert _column_text.cache_info().hits == 2
    assert_same_lines(csv_lines(warm), csv_lines(cold))
    assert_same_lines(csv_lines(cold)[2:], [*per_field_rows(config), ""])


def test_sweep_text_follows_interleaved_sweeps(tmp_path):
    # two sweeps of one length but other spacing, and one of another length: a key
    # that misses the spacing or the length hands one grid's text to another
    sweeps = [
        {"k_min": 0.1, "k_max": 8.0, "points": 40},
        {"k_min": 0.1, "k_max": 8.0, "points": 40, "spacing": "linear"},
        {"k_min": 0.1, "k_max": 8.0, "points": 41},
    ]
    defect = {"kind": "rtilde_x1", "r_tilde": 0.7}
    elements = [{"kind": "r_x4", "r": 0.3}, {"free": 0.8}, {"kind": "x1", "x1": 0.5}]
    configs = [parse_config(make_config(command="scatter", defect=defect, sweep=s)) for s in sweeps]
    configs += [
        parse_config(make_config(command="device", device={"elements": elements}, sweep=s))
        for s in sweeps
    ]
    cold = []
    for config in configs:
        _column_text.cache_clear()
        cold.append(csv_lines(command_text(config, tmp_path / "cold.csv")))
        assert_same_lines(cold[-1][2:], [*per_field_rows(config), ""])
    for i in [0, 3, 1, 4, 2, 5, 0, 0, 4, 1, 3, 2, 2, 5, 1]:
        assert_same_lines(csv_lines(command_text(configs[i], tmp_path / "warm.csv")), cold[i])


def test_sweep_text_keeps_each_commands_energy_on_one_grid(tmp_path):
    # device writes E = k * k and bands libm's pow(k, 2), which differ in the last bit on some
    # k; the two E columns of one grid are distinct keys, so neither gets the other's text
    sweep = {"k_min": 0.1, "k_max": 8.0, "points": 40, "spacing": "linear"}
    elements = [{"kind": "r_x4", "r": 0.3}, {"free": 0.8}, {"kind": "x1", "x1": 0.5}]
    device = parse_config(make_config(command="device", device={"elements": elements}, sweep=sweep))
    comb = {"period": 1.0, "cell": [{"kind": "r_x4", "r": 0.5}]}
    bands = parse_config(make_config(command="bands", comb=comb, sweep=sweep))
    expected = {config.command: [*per_field_rows(config), ""] for config in (device, bands)}
    _column_text.cache_clear()
    for config in [device, bands, bands, device, device, bands, device]:
        lines = csv_lines(command_text(config, tmp_path / "out.csv"))
        assert_same_lines(lines[2:], expected[config.command])
    # a bands point's E text is the device's at its k exactly where k * k and pow(k, 2) agree
    grid = device.sweep.grid()
    device_e = {row.split(",")[0]: row.split(",")[1] for row in expected["device"][:-1]}
    for row in expected["bands"][:-1]:
        k, e = row.split(",")[:2]
        at = int(np.searchsorted(grid, float(k)))
        assert (e == device_e[k]) == (grid[at] * grid[at] == np.float_power(grid[at], 2))


def test_sweep_text_of_bands_skips_the_grid_points_in_a_gap(tmp_path):
    # k in about [3.3, 3.9] lies inside the first gap of this comb: the grid points there carry
    # no row, so the rows take their text from a gather with gaps, not a slice of the grid
    comb = {"period": 1.0, "cell": [{"kind": "x1", "x1": 5.0}]}
    sweep = {"k_min": 0.1, "k_max": 6.0, "points": 200, "spacing": "linear"}
    config = parse_config(make_config(command="bands", comb=comb, sweep=sweep))
    expected = [*per_field_rows(config), ""]
    ks = {float(row.split(",")[0]) for row in expected[:-1]}
    assert min(ks) < 3.3 and max(ks) > 3.9 and not any(3.3 <= k <= 3.9 for k in ks)
    _column_text.cache_clear()
    for _ in range(2):  # cold, then warm
        assert_same_lines(csv_lines(command_text(config, tmp_path / "out.csv"))[2:], expected)


def test_sweep_text_column_formats_like_its_floats():
    # columns that share values, so the float columns' dedup crosses the given text
    rng = np.random.default_rng(5)
    rows = 2 * _CSV_BATCH + 5
    k = np.sort(rng.uniform(0.01, 20.0, rows))
    energy = k**2
    shared = rng.choice(np.concatenate([k, energy, [0.0, -0.0]]), rows)
    singular = (rng.random(rows) < 0.1).astype(int)
    header = "k,E,shared,singular"
    expected = csv_lines(_csv("device", header, [k, energy, shared, singular]))
    for columns in (
        [_sweep_text(k), _sweep_text(energy), shared, singular],
        [k, _sweep_text(energy), shared, singular],
    ):
        assert_same_lines(csv_lines(_csv("device", header, columns)), expected)


def test_sweep_text_cache_is_bounded_and_holds_tuples():
    assert _column_text.cache_info().maxsize == 2
    _column_text.cache_clear()
    k = np.geomspace(0.01, 20.0, 50)
    text = _sweep_text(k)
    assert type(text) is tuple and text == tuple(map(repr, k.tolist()))
    assert _sweep_text(k.copy()) is text  # another array of the same bytes hits
    for points in (3, 4, 5):
        _sweep_text(np.geomspace(0.01, 20.0, points))
    assert _column_text.cache_info().currsize == 2


def test_main_command_mismatch_fails(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="check", defect={"kind": "x1", "x1": 1.0}))
    code = main(["scatter", "--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_sweeps_opaque_device(tmp_path, capsys):
    # the 4x4 transfer of this chain overflows the current gate's scale at every momentum
    cell = [{"kind": "x1", "x1": 20.0}, {"free": 1.0}, {"kind": "r_x4", "r": 0.3}, {"free": 0.5}]
    path = tmp_path / "cfg.json"
    sweep = {"k_min": 0.01, "k_max": 20.0, "points": 200, "spacing": "log"}
    path.write_text(make_config(command="device", device={"elements": cell * 100}, sweep=sweep))
    out = tmp_path / "out.csv"
    assert main(["device", "--config", str(path), "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=2)
    assert np.array_equal(table[:, 0], SweepSpec(**sweep).grid())
    assert not table[:, -1].any()
    assert table[:, -2].max() <= 1e-10
    device = parse_config(path.read_text()).device
    for row in table[::20]:
        expected = np.abs(smatrix_by_matching(device, row[0])[:, 0]) ** 2
        assert np.abs(row[2:6] - expected).max() <= 1e-10


def test_main_reports_overflowing_device(tmp_path, capsys):
    cell = [{"kind": "x1", "x1": 1e3}, {"kind": "x4", "x4": 1e3}]
    path = tmp_path / "cfg.json"
    path.write_text(
        make_config(
            command="device",
            device={"elements": cell * 60},
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
    "command, doc, where",
    [
        (
            "scatter",
            {"defect": {"kind": "r_x4", "r": 0.5}, "sweep": {"k_max": math.inf}},
            "key 'k_max' in sweep",
        ),
        (
            "device",
            {"device": {"elements": [{"kind": "x1", "x1": math.nan}]}},
            "device.elements[0]: parameter 'x1'",
        ),
        (
            "device",
            {"device": {"elements": [{"free": math.inf}]}},
            "device.elements[0]: free segment length",
        ),
        ("check", {"defect": {"kind": "x1", "x1": 10**400}}, "defect: parameter 'x1'"),
    ],
    ids=["k_max_infinity", "x1_nan", "free_infinity", "x1_beyond_float"],
)
def test_main_rejects_non_finite_numbers(command, doc, where, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command=command, **doc))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} ") and err.endswith("must be a finite number\n")
    assert err.count("\n") == 1


ENERGY_OVERFLOW = (
    "error: key 'k_max' in sweep must be <= 1.3407807929942596e+154, beyond which k^2 overflows\n"
)


@pytest.mark.parametrize(
    "command, doc, err",
    [
        (
            "bands",
            {"comb": {"cell": []}, "tolerances": {"bloch": -1.0}},
            "error: key 'bloch' in tolerances must be > 0, got -1.0\n",
        ),
        (
            "scatter",
            {"defect": {"kind": "x1", "x1": 1.0}, "tolerances": {"transfer": 0}},
            "error: key 'transfer' in tolerances must be > 0, got 0.0\n",
        ),
        (
            "device",
            {"device": {"elements": []}, "incident": "bogus"},
            "error: key 'incident' must be one of ('left_up', 'left_down', 'right_up', "
            "'right_down'), got 'bogus'\n",
        ),
        (
            "scatter",
            {"defect": {"kind": "r_x4", "r": 0.5}, "sweep": {"k_max": 1e200, "points": 2}},
            ENERGY_OVERFLOW,
        ),
        (
            "device",
            {"device": {"elements": []}, "sweep": {"k_max": 1e200, "points": 2}},
            ENERGY_OVERFLOW,
        ),
    ],
    ids=[
        "bloch_negative",
        "transfer_zero",
        "incident_unknown",
        "scatter_energy_overflow",
        "device_energy_overflow",
    ],
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


def fresh_process_main(argv):
    """Exit code, stdout and stderr of ``python -m spinpoint`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    proc = subprocess.run(
        [sys.executable, "-m", "spinpoint", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_invocation_subprocess(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="check", defect={"kind": "r_x4", "r": 0.5}))
    code, out, _ = fresh_process_main(["check", "--config", str(path)])
    assert code == 0
    assert "X: pass, Y: pass, Z: pass" in out


def test_repeated_main_calls_print_what_a_fresh_process_prints(capsys, monkeypatch):
    # one process, several commands: each must print what a fresh interpreter prints,
    # help and usage errors included, whatever the process parsed before
    monkeypatch.setenv("COLUMNS", "80")
    scatter = ["scatter", "--config", str(CONFIG_DIR / "scatter.json")]
    bands = ["bands", "--config", str(CONFIG_DIR / "bands.json")]
    helps = [["--help"], ["scatter", "--help"]]
    usage_errors = [
        ["scatter"],
        ["nosuch", "--config", "x.json"],
        ["bands", "--out", "x.csv"],
        ["help"],
    ]
    fresh = {}
    for argv in [scatter, helps[0], bands, *usage_errors, helps[1], scatter, *helps, bands]:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = fresh_process_main(argv)
        assert (code, out, err) == fresh[tuple(argv)], argv
        assert code == (2 if argv in usage_errors else 0)
        assert out.startswith("usage: spinpoint") == (argv in helps)


def test_main_builds_its_parser_once_on_first_call(tmp_path):
    # a fresh interpreter counts every ArgumentParser built, subparsers included; the
    # count wraps __init__, since a subclass bound to argparse.ArgumentParser would recurse
    # through argparse's own super(ArgumentParser, self) call
    check = tmp_path / "check.json"
    check.write_text(make_config(command="check", defect={"kind": "r_x4", "r": 0.5}))
    calls = [
        ["check", "--config", str(check)],
        ["scatter", "--config", str(CONFIG_DIR / "scatter.json"), "--out", str(tmp_path / "s")],
        ["nosuch", "--config", str(check)],
        ["scatter", "--help"],
        ["check", "--config", str(check)],
    ]
    script = f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import spinpoint.cli
print(len(built))
codes = []
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(spinpoint.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(codes)
print(built)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    at_import, codes, built = proc.stdout.splitlines()
    assert at_import == "0"
    assert codes == "[0, 0, 2, 0, 0]"
    names = [f"'spinpoint {name}'" for name in ("check", "scatter", "device", "bands")]
    assert built == f"['spinpoint', {', '.join(names)}]"


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
