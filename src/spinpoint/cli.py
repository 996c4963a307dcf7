"""Command-line front end: structured JSON configs in, CSV/reports out.

Config documents are JSON with a versioned ``schema_version`` field; the
full schema is documented in the README.  Unknown keys are rejected so
typos fail loudly.  All CSV output starts with a frozen, versioned header
comment line ``# spinpoint-csv v1 <command>`` and formats floats with
Python's shortest round-trip representation, which makes repeated runs of
the same config byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bands as _bands
from . import device as _device
from .device import Device, FreeSegment
from .errors import ConfigError, SpinpointError
from .extensions import PARAM_KEY, DefectKind, DefectSpec, conserves_currents, defect_matrix
from .scattering import CHANNELS, ScatteringMatrix, scattering_stack

__all__ = [
    "SweepSpec",
    "Tolerances",
    "RunConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "run",
    "main",
]

SCHEMA_VERSION = 1
CSV_TAG = "# spinpoint-csv v1"
COMMANDS = ("check", "scatter", "device", "bands")


@dataclass(frozen=True)
class SweepSpec:
    k_min: float = 0.01
    k_max: float = 20.0
    points: int = 1000
    spacing: str = "log"

    def grid(self) -> np.ndarray:
        return _device.default_k_grid(self.k_min, self.k_max, self.points, self.spacing)


@dataclass(frozen=True)
class Tolerances:
    current: float = 1e-12  # conservation check of boundary matrices
    transfer: float = 1e-10  # longitudinal-current gate on transfers
    bloch: float = 1e-8  # |lambda| = 1 band membership


@dataclass(frozen=True)
class RunConfig:
    command: str
    defect: DefectSpec | None = None
    device: Device | None = None
    comb: _bands.PeriodicComb | None = None
    sweep: SweepSpec = SweepSpec()
    incident: str | None = None
    tolerances: Tolerances = Tolerances()


def _require_mapping(doc, context: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be an object, got {type(doc).__name__}")
    return doc


def _check_keys(doc: dict, allowed: set[str], context: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {context}")


def _number(doc: dict, key: str, context: str, default=None) -> float:
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in {context}")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} in {context} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity or an integer beyond float range
        raise ConfigError(f"key {key!r} in {context} must be a finite number")
    return float(value)


def _build_defect(doc, context: str) -> DefectSpec:
    doc = _require_mapping(doc, context)
    if "kind" not in doc:
        raise ConfigError(f"missing required key 'kind' in {context}")
    try:
        kind = DefectKind(doc["kind"])
    except ValueError:
        valid = ", ".join(k.value for k in DefectKind)
        raise ConfigError(
            f"unknown defect kind {doc['kind']!r} in {context}; expected one of: {valid}"
        ) from None
    if kind is DefectKind.PRODUCT:
        _check_keys(doc, {"kind", "factors"}, context)
        factors = doc.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ConfigError(f"key 'factors' in {context} must be a non-empty list")
        built = tuple(
            _build_defect(f, f"{context}.factors[{i}]") for i, f in enumerate(factors)
        )
        return DefectSpec(DefectKind.PRODUCT, factors=built)
    param = PARAM_KEY[kind]
    _check_keys(doc, {"kind", param}, context)
    value = _number(doc, param, context)
    return DefectSpec(kind, **{param: value})


def _build_element(doc, context: str):
    doc = _require_mapping(doc, context)
    if "free" in doc:
        _check_keys(doc, {"free"}, context)
        length = _number(doc, "free", context)
        if not length > 0:
            raise ConfigError(f"free segment length must be positive in {context}")
        return FreeSegment(length)
    return _build_defect(doc, context)


def _build_device(doc, context: str) -> Device:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"elements"}, context)
    elements = doc.get("elements")
    if not isinstance(elements, list):
        raise ConfigError(f"key 'elements' in {context} must be a list")
    built = tuple(
        _build_element(el, f"{context}.elements[{i}]") for i, el in enumerate(elements)
    )
    return Device(built)


def _build_comb(doc, context: str) -> _bands.PeriodicComb:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"period", "cell"}, context)
    period = _number(doc, "period", context, default=1.0)
    cell = doc.get("cell", [])
    if not isinstance(cell, list):
        raise ConfigError(f"key 'cell' in {context} must be a list")
    built = tuple(_build_element(el, f"{context}.cell[{i}]") for i, el in enumerate(cell))
    return _bands.PeriodicComb(Device(built), period)


def _build_sweep(doc, context: str) -> SweepSpec:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"k_min", "k_max", "points", "spacing"}, context)
    defaults = SweepSpec()
    k_min = _number(doc, "k_min", context, defaults.k_min)
    k_max = _number(doc, "k_max", context, defaults.k_max)
    points = doc.get("points", defaults.points)
    if isinstance(points, bool) or not isinstance(points, int):
        raise ConfigError(f"key 'points' in {context} must be an integer")
    spacing = doc.get("spacing", defaults.spacing)
    if spacing not in ("linear", "log"):
        raise ConfigError(f"key 'spacing' in {context} must be 'linear' or 'log'")
    if not k_min > 0:
        raise ConfigError(f"key 'k_min' in {context} must be > 0")
    if not k_min < k_max:
        raise ConfigError(f"key 'k_min' must be < 'k_max' in {context}")
    if points < 2:
        raise ConfigError(f"key 'points' in {context} must be >= 2")
    return SweepSpec(k_min, k_max, points, spacing)


def _build_tolerances(doc, context: str) -> Tolerances:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"current", "transfer", "bloch"}, context)
    defaults = Tolerances()
    values = {}
    for key, default in (
        ("current", defaults.current),
        ("transfer", defaults.transfer),
        ("bloch", defaults.bloch),
    ):
        value = _number(doc, key, context, default)
        if not value > 0:
            raise ConfigError(f"key {key!r} in {context} must be > 0")
        values[key] = value
    return Tolerances(**values)


_SECTION_FOR_COMMAND = {"check": "defect", "scatter": "defect", "device": "device", "bands": "comb"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig.

    Rejects unknown keys, fills documented defaults, and propagates
    parameter-domain errors from defect construction.  Parse failures
    report line and column.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    doc = _require_mapping(doc, "config")

    if "schema_version" not in doc:
        raise ConfigError("missing required key 'schema_version' in config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']!r}; this build reads {SCHEMA_VERSION}"
        )
    if "command" not in doc:
        raise ConfigError("missing required key 'command' in config")
    command = doc["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")

    section = _SECTION_FOR_COMMAND[command]
    allowed = {"schema_version", "command", "sweep", "tolerances", section}
    if command == "device":
        allowed.add("incident")
    _check_keys(doc, allowed, "config")
    if section not in doc:
        raise ConfigError(f"missing required key {section!r} for command {command!r}")

    defect = _build_defect(doc["defect"], "defect") if section == "defect" else None
    dev = _build_device(doc["device"], "device") if section == "device" else None
    comb = _build_comb(doc["comb"], "comb") if section == "comb" else None
    sweep = _build_sweep(doc.get("sweep", {}), "sweep")
    tolerances = _build_tolerances(doc.get("tolerances", {}), "tolerances")

    incident = None
    if command == "device":
        incident = doc.get("incident", "left_up")
        if incident not in CHANNELS:
            raise ConfigError(f"key 'incident' must be one of {CHANNELS}, got {incident!r}")

    return RunConfig(
        command=command,
        defect=defect,
        device=dev,
        comb=comb,
        sweep=sweep,
        incident=incident,
        tolerances=tolerances,
    )


def load_config(path: Path | str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from None
    return parse_config(text)


def _defect_doc(spec: DefectSpec) -> dict:
    if spec.kind is DefectKind.PRODUCT:
        return {"kind": "product", "factors": [_defect_doc(f) for f in spec.factors]}
    param = PARAM_KEY[spec.kind]
    return {"kind": spec.kind.value, param: getattr(spec, param)}


def _element_doc(el) -> dict:
    if isinstance(el, FreeSegment):
        return {"free": el.length}
    return _defect_doc(el)


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON text such that parse_config(serialize_config(c)) == c."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "command": config.command}
    if config.defect is not None:
        doc["defect"] = _defect_doc(config.defect)
    if config.device is not None:
        doc["device"] = {"elements": [_element_doc(el) for el in config.device.elements]}
    if config.comb is not None:
        doc["comb"] = {
            "period": config.comb.period,
            "cell": [_element_doc(el) for el in config.comb.cell.elements],
        }
    doc["sweep"] = {
        "k_min": config.sweep.k_min,
        "k_max": config.sweep.k_max,
        "points": config.sweep.points,
        "spacing": config.sweep.spacing,
    }
    if config.incident is not None:
        doc["incident"] = config.incident
    doc["tolerances"] = {
        "current": config.tolerances.current,
        "transfer": config.tolerances.transfer,
        "bloch": config.tolerances.bloch,
    }
    return json.dumps(doc, indent=2) + "\n"


def _fmt(value) -> str:
    """Shortest round-trip float text (deterministic across platforms)."""
    return repr(float(value))


def _csv(command: str, header: str, columns) -> str:
    """CSV v1 text: tag line, header, then one row per index of the equal-length columns."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = [f"{CSV_TAG} {command}", header] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _run_check(config: RunConfig) -> str:
    matrix = defect_matrix(config.defect)
    report = conserves_currents(matrix, tol=config.tolerances.current)
    flags = {"X": report.x, "Y": report.y, "Z": report.z}
    lines = [
        "spinpoint current-conservation check",
        f"defect: {json.dumps(_defect_doc(config.defect))}",
        f"tolerance: {_fmt(report.tol)}",
    ]
    for axis, residual in zip(("X", "Y", "Z"), report.residuals):
        word = "pass" if flags[axis] else "FAIL"
        lines.append(f"{axis}: {word} (residual {_fmt(residual)})")
    lines.append(", ".join(f"{axis}: {'pass' if ok else 'FAIL'}" for axis, ok in flags.items()))
    return "\n".join(lines) + "\n"


def _scatter_columns() -> list[str]:
    short = {"left_up": "Lu", "left_down": "Ld", "right_up": "Ru", "right_down": "Rd"}
    cols = ["k", "E"]
    for out in CHANNELS:
        for inc in CHANNELS:
            cols.append(f"s_{short[out]}_{short[inc]}_re")
            cols.append(f"s_{short[out]}_{short[inc]}_im")
    cols += ["unitarity_residual", "singular"]
    return cols


def _run_scatter(config: RunConfig) -> str:
    ks = config.sweep.grid()
    transfers = np.broadcast_to(defect_matrix(config.defect), (len(ks), 4, 4))
    s, singular = scattering_stack(transfers, ks, conservation_tol=config.tolerances.transfer)
    parts = np.stack([s.real, s.imag], axis=-1).reshape(len(ks), 32).T
    residuals = ScatteringMatrix(matrix=s, k=ks).unitarity_residual()
    columns = [ks, ks * ks, *parts, residuals, singular.astype(int)]
    return _csv("scatter", ",".join(_scatter_columns()), columns)


def _run_device(config: RunConfig) -> str:
    table = _device.spectrum(
        config.device,
        config.sweep.grid(),
        incident=config.incident,
        conservation_tol=config.tolerances.transfer,
    )
    header = "k,E,p_left_up,p_left_down,p_right_up,p_right_down,unitarity_residual,singular"
    columns = [
        table.k,
        table.energy,
        *table.probabilities.T,
        table.unitarity_residual,
        table.singular.astype(int),
    ]
    return _csv("device", header, columns)


def _run_bands(config: RunConfig) -> str:
    diagram = _bands.dispersion(
        config.comb, config.sweep.grid(), bloch_tol=config.tolerances.bloch
    )
    columns = [diagram.k, diagram.energy, diagram.q, diagram.branch_id, diagram.lambda_residual]
    return _csv("bands", "k,E,q,branch_id,lambda_residual", columns)


def run(config: RunConfig, out: Path | str | None = None, threads: int = 1) -> int:
    """Execute a validated config; write CSV/report to ``out`` or stdout.

    ``threads`` is accepted for compatibility and ignored: every sweep is
    one batched computation.
    """
    if config.command == "check":
        text = _run_check(config)
        sys.stdout.write(text)
        if out is not None:
            _write(out, text)
        return 0
    if config.command == "scatter":
        text = _run_scatter(config)
    elif config.command == "device":
        text = _run_device(config)
    elif config.command == "bands":
        text = _run_bands(config)
    else:  # pragma: no cover - parse_config rejects unknown commands
        raise ConfigError(f"unknown command {config.command!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, text)
    return 0


def _write(out: Path | str, text: str) -> None:
    try:
        with Path(out).open("w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {str(out)!r}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinpoint",
        description="1D spin-1/2 transport through point interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("check", "current-conservation report for a defect"),
        ("scatter", "S-matrix sweep for a single defect"),
        ("device", "transmission/reflection spectrum of a device"),
        ("bands", "Bloch band diagram of a periodic comb"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path, required=True, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if config.command != args.command:
            raise ConfigError(
                f"config declares command {config.command!r} but {args.command!r} was invoked"
            )
        return run(config, out=args.out, threads=args.threads)
    except SpinpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
