"""Command-line front end: structured JSON configs in, CSV/reports out.

Config documents are JSON with a versioned ``schema_version`` field; the
full schema is documented in the README.  Unknown keys are rejected so
typos fail loudly.  All CSV output starts with a frozen, versioned header
comment line ``# spinpoint-csv v1 <command>`` and formats floats with
Python's shortest round-trip representation, which makes repeated runs of
the same config byte-identical.  Each batch of rows formats each distinct
float once, keyed by its bit pattern (S-matrix entries repeat, and many
parts are exactly 0.0); the bytes are those of formatting every field on
its own.

``main(argv)`` may be called repeatedly in one process: the argparse parser
is built on the first call and reused, and each call reads its config and
writes its output afresh.  The k and E text of a sweep is formatted once per
process while the grid repeats: a cache keyed by the exact bytes of each
float64 column keeps the last two columns (one sweep's k and E, about 83 B
per momentum per column), so the bytes are unchanged.  ``scatter`` and
``device`` write one row per grid point; each ``bands`` point takes the text
of its grid point, found by ``searchsorted`` on the sorted grid.  This helps
callers that run many commands in one process; a one-shot ``spinpoint`` run
still builds the parser once and formats each field once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import bands as _bands
from . import device as _device
from .device import Device, FreeSegment, SweepSpec
from .errors import ConfigError, ParameterDomainError, SpinpointError
from .extensions import PARAM_KEY, DefectKind, DefectSpec, Tolerances, conserves_currents
from .extensions import defect_matrix
from .scattering import CHANNELS, channel_probabilities

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


def _record_at(context: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ParameterDomainError a ConfigError prefixed by ``context``."""
    try:
        return cls(*args, **kwargs)
    except ParameterDomainError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _require_key(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return doc[key]


def _build_list(doc: dict, key: str, context: str, build) -> tuple:
    items = doc.get(key)
    if not isinstance(items, list):
        raise ConfigError(f"key {key!r} in {context} must be a list")
    return tuple(build(item, f"{context}.{key}[{i}]") for i, item in enumerate(items))


def _build_defect(doc, context: str) -> DefectSpec:
    doc = _require_mapping(doc, context)
    kind = _record_at(context, DefectKind, _require_key(doc, "kind", context))
    if kind is DefectKind.PRODUCT:
        _check_keys(doc, {"kind", "factors"}, context)
        factors = _build_list(doc, "factors", context, _build_defect)
        return _record_at(context, DefectSpec, kind, factors=factors)
    param = PARAM_KEY[kind]
    _check_keys(doc, {"kind", param}, context)
    return _record_at(context, DefectSpec, kind, _require_key(doc, param, context))


def _build_element(doc, context: str):
    doc = _require_mapping(doc, context)
    if "free" in doc:
        _check_keys(doc, {"free"}, context)
        return _record_at(context, FreeSegment, doc["free"])
    return _build_defect(doc, context)


def _build_device(doc, context: str) -> Device:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"elements"}, context)
    return Device(_build_list(doc, "elements", context, _build_element))


def _build_comb(doc, context: str) -> _bands.PeriodicComb:
    doc = _require_mapping(doc, context)
    _check_keys(doc, {"period", "cell"}, context)
    cell = Device(_build_list(doc, "cell", context, _build_element) if "cell" in doc else ())
    period = doc.get("period", _bands.PeriodicComb.period)
    return _record_at(context, _bands.PeriodicComb, cell, period)


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

    Checks the JSON shape (objects, known and required keys, lists) and
    fills documented defaults; the records check every value, and an
    element's ParameterDomainError becomes a ConfigError that starts with
    the element's JSON path, e.g. ``device.elements[1]: ...``.  Parse
    failures report line and column.
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


#: Rows of a CSV table formatted together; the strings of one batch are alive at a time.
_CSV_BATCH = 1024


@functools.lru_cache(maxsize=2)
def _column_text(bits: bytes) -> tuple[str, ...]:
    """``repr`` of each float64 in ``bits``; the last two columns (one sweep's k and E) are kept,
    about 83 B per value each with its key.
    """
    return tuple(map(repr, np.frombuffer(bits, dtype=np.float64).tolist()))


def _sweep_text(column: np.ndarray) -> tuple[str, ...]:
    """The field strings of a float64 sweep column, formatted once while the grid repeats: the k
    and E of a ``scatter`` or ``device`` table, or of the grid a ``bands`` diagram is gathered from.
    """
    return _column_text(column.tobytes())


def _csv(command: str, header: str, columns) -> str:
    """CSV v1 text: tag line, header, then one row per index of the equal-length columns.

    Every field is ``repr`` of its value as a Python scalar.  A column given
    as a tuple holds those strings already (a sweep's k or E text from
    ``_sweep_text``) and is sliced per batch like the arrays.  In each batch
    of rows, the float64 columns are stacked and each distinct value is
    formatted once, keyed by its bit pattern, not its value: ``-0.0`` and
    ``0.0`` compare equal but print differently.  Other columns
    (``singular``, ``branch_id``) are formatted field by field, so an
    integer prints as ``0``, not ``0.0``.  The bytes are those of
    formatting every field on its own.
    """
    columns = [col if isinstance(col, tuple) else np.asarray(col) for col in columns]
    lines = [f"{CSV_TAG} {command}", header]
    for start in range(0, len(columns[0]), _CSV_BATCH):
        lines += _csv_rows([col[start : start + _CSV_BATCH] for col in columns])
    lines.append("")
    return "\n".join(lines)


def _csv_rows(columns: list) -> list[str]:
    """The comma-joined rows of one batch of ``_csv``."""
    text = [
        col if isinstance(col, tuple) or col.dtype == np.float64 else list(map(repr, col.tolist()))
        for col in columns
    ]
    floats = [i for i, col in enumerate(text) if isinstance(col, np.ndarray)]
    if floats:
        values = np.stack([text[i] for i in floats])
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        strings = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        # numpy 1.x returns a flat inverse, numpy 2.x one shaped like ``values``
        for i, column in zip(floats, strings[inverse.reshape(values.shape)].tolist()):
            text[i] = column
    return list(map(",".join, zip(*text)))


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
    table = _device.spectrum(
        Device((config.defect,)), config.sweep.grid(), conservation_tol=config.tolerances.transfer
    )
    parts = np.stack([table.smatrix.real, table.smatrix.imag], -1).reshape(len(table), 32).T
    k, energy = _sweep_text(table.k), _sweep_text(table.energy)
    columns = [k, energy, *parts, table.unitarity_residual, table.singular.astype(int)]
    short = ("Lu", "Ld", "Ru", "Rd")  # CHANNELS, abbreviated
    names = [f"s_{out}_{inc}_{part}" for out in short for inc in short for part in ("re", "im")]
    return _csv("scatter", ",".join(["k", "E", *names, "unitarity_residual", "singular"]), columns)


def _run_device(config: RunConfig) -> str:
    table = _device.spectrum(
        config.device, config.sweep.grid(), conservation_tol=config.tolerances.transfer
    )
    header = "k,E,p_left_up,p_left_down,p_right_up,p_right_down,unitarity_residual,singular"
    columns = [
        _sweep_text(table.k),
        _sweep_text(table.energy),
        *channel_probabilities(table.smatrix, config.incident).T,
        table.unitarity_residual,
        table.singular.astype(int),
    ]
    return _csv("device", header, columns)


def _run_bands(config: RunConfig) -> str:
    grid = config.sweep.grid()
    diagram = _bands.dispersion(config.comb, grid, bloch_tol=config.tolerances.bloch)
    # each point's k and E text is its grid point's: the grid is sorted, so searchsorted finds
    # a point's k, and equal k have equal bits
    at = np.searchsorted(grid, diagram.k).tolist()
    k, energy = (
        tuple(map(_sweep_text(column).__getitem__, at)) for column in (grid, _bands._energy(grid))
    )
    columns = [k, energy, diagram.q, diagram.branch_id, diagram.lambda_residual]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="spinpoint",
        description="1D spin-1/2 transport through point interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path, required=True, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
