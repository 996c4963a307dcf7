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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import bands as _bands
from . import device as _device
from .device import Device, FreeSegment, SweepSpec
from .errors import ConfigError, SpinpointError
from .extensions import PARAM_KEY, DefectKind, DefectSpec, check_real, conserves_currents
from .extensions import defect_matrix
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


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates of a run, each a finite number > 0 (ConfigError otherwise)."""

    current: float = 1e-12  # conservation check of boundary matrices
    transfer: float = 1e-10  # longitudinal-current gate on transfers
    bloch: float = 1e-8  # |lambda| = 1 band membership

    def __post_init__(self):
        for f in fields(self):
            value = check_real(getattr(self, f.name), f"key {f.name!r} in tolerances", ConfigError)
            if not value > 0:
                raise ConfigError(f"key {f.name!r} in tolerances must be > 0")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class RunConfig:
    """One command and the section it needs; ``device`` defaults ``incident`` to left_up.

    Another command's section, or ``incident`` off ``device``, is an unknown key.
    """

    command: str
    defect: DefectSpec | None = None
    device: Device | None = None
    comb: _bands.PeriodicComb | None = None
    sweep: SweepSpec = SweepSpec()
    incident: str | None = None
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        section = _section(self.command)
        allowed = {section, "incident"} if self.command == "device" else {section}
        for key in (*_SECTIONS, "incident"):
            if key not in allowed and getattr(self, key) is not None:
                raise ConfigError(f"unknown key {key!r} in config")
        if getattr(self, section) is None:
            raise ConfigError(f"missing required key {section!r} for command {self.command!r}")
        types = {section: _SECTIONS[section][0], "sweep": SweepSpec, "tolerances": Tolerances}
        for key, cls in types.items():
            value = getattr(self, key)
            if not isinstance(value, cls):
                raise ConfigError(
                    f"key {key!r} in config must be a {cls.__name__}, got {type(value).__name__}"
                )
        if self.command == "device" and self.incident is None:
            object.__setattr__(self, "incident", "left_up")
        if self.incident is not None and self.incident not in CHANNELS:
            raise ConfigError(f"key 'incident' must be one of {CHANNELS}, got {self.incident!r}")


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
    return check_real(doc[key], f"key {key!r} in {context}", ConfigError)


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
    return DefectSpec(kind, _number(doc, param, context))


def _build_element(doc, context: str):
    doc = _require_mapping(doc, context)
    if "free" in doc:
        _check_keys(doc, {"free"}, context)
        length = _number(doc, "free", context)
        if not length > 0:
            raise ConfigError(f"free segment length must be positive in {context}")
        return FreeSegment(length)
    return _build_defect(doc, context)


def _build_elements(doc: dict, key: str, context: str) -> Device:
    elements = doc.get(key)
    if not isinstance(elements, list):
        raise ConfigError(f"key {key!r} in {context} must be a list")
    return Device(
        tuple(_build_element(el, f"{context}.{key}[{i}]") for i, el in enumerate(elements))
    )


def _build_device(doc, context: str) -> Device:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"elements"}, context)
    return _build_elements(doc, "elements", context)


def _build_comb(doc, context: str) -> _bands.PeriodicComb:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"period", "cell"}, context)
    period = _number(doc, "period", context, default=1.0)
    cell = _build_elements(doc, "cell", context) if "cell" in doc else Device(())
    return _bands.PeriodicComb(cell, period)


def _build_record(cls, doc, context: str):
    """A SweepSpec or Tolerances from a JSON object; the record checks its own values."""
    doc = _require_mapping(doc, context)
    _check_keys(doc, {f.name for f in fields(cls)}, context)
    return cls(**doc)


#: Each config section: the record it holds and the reader that builds it from JSON.
_SECTIONS = {
    "defect": (DefectSpec, _build_defect),
    "device": (Device, _build_device),
    "comb": (_bands.PeriodicComb, _build_comb),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig.

    Rejects unknown keys, fills documented defaults, and propagates
    parameter-domain errors from defect construction.  Parse failures
    report line and column.
    """
    try:
        return _build_config(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None


def _build_config(doc) -> RunConfig:
    doc = _require_mapping(doc, "config")
    if "schema_version" not in doc:
        raise ConfigError("missing required key 'schema_version' in config")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )
    if "command" not in doc:
        raise ConfigError("missing required key 'command' in config")
    allowed = {"schema_version", "command", "sweep", "tolerances", "incident", *_SECTIONS}
    _check_keys(doc, allowed, "config")
    sections = {key: build(doc[key], key) for key, (_, build) in _SECTIONS.items() if key in doc}
    sweep = _build_record(SweepSpec, doc.get("sweep", {}), "sweep")
    tolerances = _build_record(Tolerances, doc.get("tolerances", {}), "tolerances")
    incident = doc.get("incident")
    return RunConfig(
        doc["command"], sweep=sweep, incident=incident, tolerances=tolerances, **sections
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
    return {"kind": spec.kind.value, PARAM_KEY[spec.kind]: spec.value}


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
    doc["sweep"] = asdict(config.sweep)
    if config.incident is not None:
        doc["incident"] = config.incident
    doc["tolerances"] = asdict(config.tolerances)
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
    report = conserves_currents(defect_matrix(config.defect), tol=config.tolerances.current)
    words = ["pass" if ok else "FAIL" for ok in (report.x, report.y, report.z)]
    lines = [
        "spinpoint current-conservation check",
        f"defect: {json.dumps(_defect_doc(config.defect))}",
        f"tolerance: {_fmt(report.tol)}",
        *(
            f"{axis}: {word} (residual {_fmt(res)})"
            for axis, word, res in zip("XYZ", words, report.residuals)
        ),
        ", ".join(f"{axis}: {word}" for axis, word in zip("XYZ", words)),
    ]
    return "\n".join(lines) + "\n"


def _run_scatter(config: RunConfig) -> str:
    ks = config.sweep.grid()
    transfers = np.broadcast_to(defect_matrix(config.defect), (len(ks), 4, 4))
    s, singular = scattering_stack(transfers, ks, conservation_tol=config.tolerances.transfer)
    parts = np.stack([s.real, s.imag], axis=-1).reshape(len(ks), 32).T
    residuals = ScatteringMatrix(matrix=s, k=ks).unitarity_residual()
    columns = [ks, ks * ks, *parts, residuals, singular.astype(int)]
    short = ("Lu", "Ld", "Ru", "Rd")  # CHANNELS, abbreviated
    names = [f"s_{out}_{inc}_{part}" for out in short for inc in short for part in ("re", "im")]
    return _csv("scatter", ",".join(["k", "E", *names, "unitarity_residual", "singular"]), columns)


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


_COMMANDS = {
    "check": ("defect", _run_check, "current-conservation report for a defect"),
    "scatter": ("defect", _run_scatter, "S-matrix sweep for a single defect"),
    "device": ("device", _run_device, "transmission/reflection spectrum of a device"),
    "bands": ("comb", _run_bands, "Bloch band diagram of a periodic comb"),
}
COMMANDS = tuple(_COMMANDS)


def _section(command: str) -> str:
    """The config section a command needs; raises ConfigError for an unknown command."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    return _COMMANDS[command][0]


def run(config: RunConfig, out: Path | str | None = None) -> int:
    """Execute a validated config; write CSV/report to ``out`` or stdout.

    The ``check`` report always goes to stdout, and to ``out`` as well when
    one is given.
    """
    text = _COMMANDS[config.command][1](config)
    if out is None or config.command == "check":
        sys.stdout.write(text)
    if out is not None:
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
    for name, (_, _, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path, required=True, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if config.command != args.command:
            raise ConfigError(
                f"config declares command {config.command!r} but {args.command!r} was invoked"
            )
        return run(config, out=args.out)
    except (SpinpointError, MemoryError) as exc:  # MemoryError: e.g. a k grid too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
