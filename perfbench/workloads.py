"""Seeded workload generators.

A workload is an endless, deterministic stream of ``spinpoint`` config
documents: command ``j`` of workload ``w`` under seed ``s`` depends only on
``(s, w, j)``, so a faster program simply runs further along the same
stream.  Grid sizes and element counts are fixed per workload; only the
physical parameters are drawn from the seed.  Commands come in cycles of
``CYCLE[w]`` (the alternating device shapes or defect kinds), and a run
always ends on a whole cycle so every run holds the same mix of shapes.

Why each workload exists (the layer it makes dominant):

* ``defect_table`` -- every defect kind plus 2-3 factor products, each as
  one ``check`` and one ``scatter`` on 200 log-spaced k in [0.1, 10].  The
  only workload that runs the scatter command's own k loop, the 34-column
  S-matrix formatter and ``conserves_currents``.
* ``resonator_sweep`` -- 3- and 5-element resonators on 4000 log-spaced k
  in [0.01, 20].  Few elements and many k: the per-k transfer-to-scattering
  rearrangement dominates, composition is small.
* ``long_chain`` -- disordered 200-element chains (50 cells
  ``[r_x4, free, x1, free]``, every cell drawn afresh) on 300 log-spaced k.
  Element construction and composition dominate, nothing repeats, and the
  opaque chain exposes singular and non-unitary rows.
* ``comb_bands`` -- pure ``r_x4`` combs of period 1 (one defect per cell,
  or two around an internal free segment) on 3000 linear k in [0.02, 12].
  The per-k eigen-decomposition and branch stitching dominate; the
  scattering layer is not used.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 1

WORKLOADS = ("defect_table", "resonator_sweep", "long_chain", "comb_bands")

#: Commands per cycle of each workload's stream.
CYCLE = {"defect_table": 14, "resonator_sweep": 2, "long_chain": 2, "comb_bands": 2}

SINGLE_KINDS = ("x1", "x4", "mass_jump", "flux", "r_x4", "rtilde_x1")
_PARAM = {
    "x1": "x1",
    "x4": "x4",
    "mass_jump": "mu",
    "flux": "phi",
    "r_x4": "r",
    "rtilde_x1": "r_tilde",
}

SCATTER_SWEEP = {"k_min": 0.1, "k_max": 10.0, "points": 200, "spacing": "log"}
RESONATOR_SWEEP = {"k_min": 0.01, "k_max": 20.0, "points": 4000, "spacing": "log"}
CHAIN_SWEEP = {"k_min": 0.01, "k_max": 20.0, "points": 300, "spacing": "log"}
BANDS_SWEEP = {"k_min": 0.02, "k_max": 12.0, "points": 3000, "spacing": "linear"}
CHAIN_CELLS = 50


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Generator for command ``index`` (-1 is the warm-up command)."""
    return np.random.default_rng([seed, WORKLOADS.index(workload), index + 1])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _signed(rng, lo: float, hi: float) -> float:
    return _log_uniform(rng, lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)


def _single_defect(rng, kind: str) -> dict:
    if kind == "mass_jump":
        value = _log_uniform(rng, 0.25, 4.0)
    elif kind == "flux":
        value = float(rng.uniform(-1.0, 1.0))
    else:
        value = _signed(rng, 0.1, 5.0)
    return {"kind": kind, _PARAM[kind]: value}


def _defect_table(rng, index: int) -> dict:
    slot = (index // 2) % 7
    if slot < len(SINGLE_KINDS):
        defect = _single_defect(rng, SINGLE_KINDS[slot])
    else:
        count = int(rng.integers(2, 4))
        kinds = rng.choice(len(SINGLE_KINDS), size=count)
        defect = {
            "kind": "product",
            "factors": [_single_defect(rng, SINGLE_KINDS[int(i)]) for i in kinds],
        }
    if index % 2 == 0:
        return {"schema_version": SCHEMA_VERSION, "command": "check", "defect": defect}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scatter",
        "defect": defect,
        "sweep": dict(SCATTER_SWEEP),
    }


def _resonator(rng, index: int) -> dict:
    flip = {"kind": "r_x4", "r": _log_uniform(rng, 0.05, 1.0)}
    gap = float(rng.uniform(0.5, 2.0))
    if index % 2 == 0:
        elements = [flip, {"free": gap}, flip]
    else:
        split = float(rng.uniform(0.3, 0.7))
        barrier = {"kind": "x1", "x1": _log_uniform(rng, 0.1, 5.0)}
        elements = [flip, {"free": gap * split}, barrier, {"free": gap * (1 - split)}, flip]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "device",
        "device": {"elements": elements},
        "incident": "left_up",
        "sweep": dict(RESONATOR_SWEEP),
    }


def _long_chain(rng, index: int) -> dict:
    elements = []
    for _ in range(CHAIN_CELLS):
        elements += [
            {"kind": "r_x4", "r": float(rng.uniform(0.1, 1.0))},
            {"free": float(rng.uniform(0.2, 1.0))},
            {"kind": "x1", "x1": _log_uniform(rng, 0.3, 5.0)},
            {"free": float(rng.uniform(0.2, 1.0))},
        ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "device",
        "device": {"elements": elements},
        "incident": "left_up",
        "sweep": dict(CHAIN_SWEEP),
    }


def _comb(rng, index: int) -> dict:
    if index % 2 == 0:
        cell = [{"kind": "r_x4", "r": _log_uniform(rng, 0.1, 2.0)}]
    else:
        cell = [
            {"kind": "r_x4", "r": _log_uniform(rng, 0.1, 2.0)},
            {"free": float(rng.uniform(0.2, 0.8))},
            {"kind": "r_x4", "r": _log_uniform(rng, 0.1, 2.0)},
        ]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "bands",
        "comb": {"period": 1.0, "cell": cell},
        "sweep": dict(BANDS_SWEEP),
    }


_BUILDERS = {
    "defect_table": _defect_table,
    "resonator_sweep": _resonator,
    "long_chain": _long_chain,
    "comb_bands": _comb,
}


def config(workload: str, seed: int, index: int) -> dict:
    """Config document of command ``index`` of a workload's stream."""
    # The warm-up command (index -1) takes the shape of command 1, a sweep.
    shape = 1 if index < 0 else index
    return _BUILDERS[workload](_rng(seed, workload, index), shape)


def config_text(doc: dict) -> str:
    """Canonical config bytes: floats in shortest round-trip form."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def describe(doc: dict) -> dict:
    """Grid and device size of one command, for the run record."""
    out: dict = {"command": doc["command"]}
    sweep = doc.get("sweep")
    if sweep is not None:
        out.update(
            points=sweep["points"],
            spacing=sweep["spacing"],
            k_min=sweep["k_min"],
            k_max=sweep["k_max"],
        )
    if "device" in doc:
        elements = doc["device"]["elements"]
    elif "comb" in doc:
        elements = doc["comb"]["cell"]
        out["period"] = doc["comb"]["period"]
    else:
        elements = [doc["defect"]]
    out["elements"] = len(elements)
    out["free_length"] = sum(el["free"] for el in elements if "free" in el)
    return out
