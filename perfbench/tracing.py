"""Outside-in layer tracing of ``spinpoint``.

The tracer wraps public functions of the ``spinpoint`` modules from the
benchmark's side.  Several of them are imported by name into other
modules (``propagation`` and ``total_transfer`` into ``device``/``bands``,
``defect_matrix`` into ``cli``/``device``, ``transfer_to_scattering`` into
``cli``), so every module attribute bound to a wrapped function is
rebound, and the originals are put back by :meth:`Tracer.uninstall`.

Spans live in memory as compact arrays (name, start, end, parent span,
command id) and are written out once at the end.  A span's self time is
its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, qualified name) of every traced function, by layer.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_config"),
    ("cli", "run"),
    ("extensions", "defect_matrix"),
    ("extensions", "conserves_currents"),
    ("scattering", "propagation"),
    ("scattering", "transfer_to_scattering"),
    ("scattering", "channel_probabilities"),
    ("scattering", "ScatteringMatrix.unitarity_residual"),
    ("device", "spectrum"),
    ("device", "total_transfer"),
    ("bands", "dispersion"),
    ("bands", "cell_transfer"),
)
NAMES = tuple(f"{module}.{qualname}" for module, qualname in TRACED)


def spinpoint_modules() -> list:
    """Every loaded module of the ``spinpoint`` package."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "spinpoint" or name.startswith("spinpoint.")
    ]


def snapshot() -> dict:
    """Identity of every function-valued attribute of the spinpoint modules."""
    out = {}
    for mod in spinpoint_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if callable(fn):
                        out[(mod.__name__, f"{attr}.{meth}")] = fn
    return out


def changed_since(before: dict) -> list:
    """Names whose bound object is no longer the one in ``before``."""
    now = snapshot()
    return sorted(
        ".".join(key) for key, value in before.items() if now.get(key) is not value
    )


class Tracer:
    """Installs span-recording wrappers and turns spans into layer times."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = [0] * len(TRACED)
        self.current_command = -1
        self._stack = [-1]
        self._rebound: list = []

    def _wrap(self, fid: int, fn):
        names, parents, commands = self.name, self.parent, self.command
        starts, ends, stack, raised = self.start, self.end, self._stack, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(fid)
            parents.append(stack[-1])
            commands.append(self.current_command)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return traced

    def install(self) -> None:
        modules = spinpoint_modules()
        for fid, (module, qualname) in enumerate(TRACED):
            home = importlib.import_module(f"spinpoint.{module}")
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                original = vars(cls)[meth]
                self._rebind(cls, meth, original, self._wrap(fid, original))
                continue
            original = vars(home)[qualname]
            wrapper = self._wrap(fid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._rebound.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "command": np.frombuffer(self.command, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())


def layer_times(spans: dict, groups: np.ndarray, ngroups: int) -> dict:
    """Per-group call counts, total and self time of every traced function.

    ``groups`` maps each command id to a group (a pass over the command
    set); returns arrays of shape (ngroups, len(TRACED)).
    """
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    covered = np.zeros(len(duration))
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    self_time = duration - covered
    group = groups[spans["command"]]
    shape = (ngroups, len(TRACED))
    calls = np.zeros(shape, dtype=np.int64)
    total = np.zeros(shape)
    own = np.zeros(shape)
    np.add.at(calls, (group, name), 1)
    np.add.at(total, (group, name), duration)
    np.add.at(own, (group, name), self_time)
    return {"calls": calls, "total_s": total, "self_s": own}
