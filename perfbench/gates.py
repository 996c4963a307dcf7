"""Correctness gates on the CSV and report text the CLI writes.

Every momentum of a sweep is classified.  A momentum fails when its row

* is flagged ``singular``, or holds a non-finite value;
* has a unitarity residual above ``UNITARITY_TOL`` (the library's
  ``is_unitary`` default): for ``scatter`` rows the residual is recomputed
  from the printed S entries, for ``device`` rows it is the larger of the
  printed residual and |sum of probabilities - 1|;
* on a seeded sample of rows, differs from the plane-wave matching oracle
  (``tests/matching_oracle.py``) by more than ``ORACLE_TOL`` in any S entry
  or probability;
* for ``bands``, has a propagating point set that differs from the one the
  decoupled scalar route (``spin_decouple`` + ``scalar_dispersion``) gives:
  a missing or extra point, or a quasi-momentum off by more than
  ``BANDS_Q_TOL``.

A failure is *silent* when the program gave no sign of it: the row was not
flagged singular and its printed residual claimed unitarity.  Failures the
program reports itself are counted but do not make a run incorrect; silent
ones do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

UNITARITY_TOL = 1e-10
ORACLE_TOL = 1e-8
BANDS_Q_TOL = 1e-6
ORACLE_SAMPLE = 8

CSV_TAG = "# spinpoint-csv v1"
CHANNELS = ("left_up", "left_down", "right_up", "right_down")
_SHORT = ("Lu", "Ld", "Ru", "Rd")
SCATTER_HEADER = ",".join(
    ["k", "E"]
    + [f"s_{o}_{i}_{part}" for o in _SHORT for i in _SHORT for part in ("re", "im")]
    + ["unitarity_residual", "singular"]
)
DEVICE_HEADER = "k,E,p_left_up,p_left_down,p_right_up,p_right_down,unitarity_residual,singular"
BANDS_HEADER = "k,E,q,branch_id,lambda_residual"
HEADERS = {"scatter": SCATTER_HEADER, "device": DEVICE_HEADER, "bands": BANDS_HEADER}

REASONS = ("singular", "nonfinite", "unitarity", "oracle_fail", "bands_mismatch")


class MalformedOutput(ValueError):
    """The CLI output does not have the documented shape."""


@dataclass
class RowReport:
    """Classification of every momentum of one sweep command."""

    attempted: int
    failed: int = 0
    silent: int = 0
    reasons: dict = field(default_factory=lambda: dict.fromkeys(REASONS, 0))
    oracle_checked: int = 0
    branches: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def expected_grid(sweep: dict) -> np.ndarray:
    if sweep["spacing"] == "log":
        return np.geomspace(sweep["k_min"], sweep["k_max"], sweep["points"])
    return np.linspace(sweep["k_min"], sweep["k_max"], sweep["points"])


def parse_csv(text: str, command: str) -> np.ndarray:
    """Numeric table of a CLI CSV; raises MalformedOutput on a bad shape."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise MalformedOutput("CSV must have a tag line, a header and end in a newline")
    if lines[0] != f"{CSV_TAG} {command}":
        raise MalformedOutput(f"unexpected tag line {lines[0]!r}")
    if lines[1] != HEADERS[command]:
        raise MalformedOutput(f"unexpected header {lines[1]!r}")
    ncol = HEADERS[command].count(",") + 1
    body = lines[2:-1]
    if not body:
        return np.zeros((0, ncol))
    fields = ",".join(body).split(",")
    if len(fields) != ncol * len(body):
        raise MalformedOutput("rows do not all have the header's column count")
    try:
        return np.array(fields, dtype=float).reshape(len(body), ncol)
    except ValueError as exc:
        raise MalformedOutput(f"non-numeric field: {exc}") from None


def _check_grid(table: np.ndarray, sweep: dict) -> np.ndarray:
    grid = expected_grid(sweep)
    if len(table) != len(grid) or not np.allclose(table[:, 0], grid, rtol=1e-13, atol=0):
        raise MalformedOutput("k column does not match the configured grid")
    if not np.allclose(table[:, 1], grid * grid, rtol=1e-13, atol=0):
        raise MalformedOutput("E column is not k^2")
    return grid


def _sample(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False))


def _finish(report: RowReport, bad: dict, silent: np.ndarray) -> RowReport:
    any_bad = np.zeros(report.attempted, dtype=bool)
    for reason, mask in bad.items():
        report.reasons[reason] = int(np.count_nonzero(mask))
        any_bad |= mask
    report.failed = int(np.count_nonzero(any_bad))
    report.silent = int(np.count_nonzero(silent))
    return report


def _gate_rows(table, n, residual_of, oracle_diff, rng) -> RowReport:
    """Classify rows whose last two columns are (printed residual, singular)."""
    reported, singular = table[:, -2], table[:, -1] == 1
    finite = np.isfinite(table).all(axis=1)
    ok = ~singular & finite
    residual = np.full(n, np.inf)
    residual[ok] = residual_of(ok)
    claimed = ok & (reported <= UNITARITY_TOL)
    unitarity = ok & (residual > UNITARITY_TOL)
    oracle_bad = np.zeros(n, dtype=bool)
    report = RowReport(attempted=n)
    for i in _sample(n, rng):
        if ok[i]:
            oracle_bad[i] = oracle_diff(i) > ORACLE_TOL
            report.oracle_checked += 1
    bad = {
        "singular": singular,
        "nonfinite": ~singular & ~finite,
        "unitarity": unitarity,
        "oracle_fail": oracle_bad,
    }
    silent = (~singular & ~finite) | (claimed & (unitarity | oracle_bad))
    return _finish(report, bad, silent)


def check_scatter(text: str, sweep: dict, rng: np.random.Generator, oracle) -> RowReport:
    """Gate a ``scatter`` CSV; ``oracle(k)`` gives the reference S at k.

    The unitarity residual is recomputed from the printed S entries.
    """
    table = parse_csv(text, "scatter")
    grid = _check_grid(table, sweep)
    parts = table[:, 2:34].reshape(len(grid), 4, 4, 2)
    s = parts[..., 0] + 1j * parts[..., 1]

    def residual_of(rows):
        gram = np.conj(np.swapaxes(s[rows], 1, 2)) @ s[rows]
        return np.abs(gram - np.eye(4)).max(axis=(1, 2))

    return _gate_rows(
        table, len(grid), residual_of, lambda i: np.abs(s[i] - oracle(grid[i])).max(), rng
    )


def check_device(
    text: str, sweep: dict, incident: str, rng: np.random.Generator, oracle
) -> RowReport:
    """Gate a ``device`` CSV; ``oracle(k)`` gives the reference S at k.

    The unitarity residual is the larger of the printed one and
    |sum of probabilities - 1|, which a unitary S bounds by its residual.
    """
    table = parse_csv(text, "device")
    grid = _check_grid(table, sweep)
    probs = table[:, 2:6]
    column = CHANNELS.index(incident)

    def residual_of(rows):
        return np.maximum(table[rows, 6], np.abs(probs[rows].sum(axis=1) - 1.0))

    def oracle_diff(i):
        return np.abs(probs[i] - np.abs(oracle(grid[i])[:, column]) ** 2).max()

    return _gate_rows(table, len(grid), residual_of, oracle_diff, rng)


def check_bands(text: str, sweep: dict, reference) -> RowReport:
    """Gate a ``bands`` CSV against the decoupled scalar route, k by k.

    ``reference(grid)`` returns the scalar-route points as (k, q) arrays.
    """
    table = parse_csv(text, "bands")
    grid = expected_grid(sweep)
    n = len(grid)
    report = RowReport(attempted=n)
    if len(table) and not np.all(np.isin(table[:, 0], grid)):
        raise MalformedOutput("bands rows at a k outside the configured grid")
    if len(table) and np.any(np.diff(table[:, 0]) < 0):
        raise MalformedOutput("bands rows are not in k order")
    finite_rows = np.isfinite(table).all(axis=1)
    idx = np.searchsorted(grid, table[:, 0])
    nonfinite = np.zeros(n, dtype=bool)
    nonfinite[idx[~finite_rows]] = True
    ref_k, ref_q = reference(grid)
    ref_idx = np.searchsorted(grid, ref_k)
    # Where both routes give the same number of points, compare the sorted
    # q values pairwise; only the momenta this flags, or whose counts
    # differ, need the set comparison.
    got_order = np.lexsort((table[:, 2], idx))
    ref_order = np.lexsort((ref_q, ref_idx))
    same_count = np.bincount(idx, minlength=n) == np.bincount(ref_idx, minlength=n)
    got_sel = same_count[idx[got_order]]
    ref_sel = same_count[ref_idx[ref_order]]
    off = np.abs(table[got_order[got_sel], 2] - ref_q[ref_order[ref_sel]]) > BANDS_Q_TOL
    suspect = ~same_count
    suspect[idx[got_order[got_sel]][off]] = True
    mismatch = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(suspect & ~nonfinite):
        mismatch[i] = _q_sets_differ(table[idx == i, 2], ref_q[ref_idx == i])
    report.branches = len(set(table[finite_rows, 3].astype(int).tolist()))
    bad = {"nonfinite": nonfinite, "bands_mismatch": mismatch}
    return _finish(report, bad, nonfinite | mismatch)


def _q_sets_differ(got: np.ndarray, want: np.ndarray) -> bool:
    """True when the two point sets are further apart than BANDS_Q_TOL."""
    if not len(got) and not len(want):
        return False
    if not len(got) or not len(want):
        return True
    dist = np.abs(np.subtract.outer(got, want))
    return bool(dist.min(axis=1).max() > BANDS_Q_TOL or dist.min(axis=0).max() > BANDS_Q_TOL)


#: Kinds that conserve all three current components; x1 and x4 conserve
#: only the longitudinal (X) one.
SPIN_CONSERVING = {"mass_jump", "flux", "r_x4", "rtilde_x1"}


def check_report(text: str, defect: dict) -> bool:
    """True when a ``check`` report is consistent and gives the expected verdicts.

    Every admissible point interaction conserves the X current.  Defects
    built only from ``SPIN_CONSERVING`` kinds also conserve Y and Z, and a
    single x1 or x4 defect conserves neither (its residual is 2|strength|).
    Products mixing x1/x4 with other kinds are gated on X only.
    """
    lines = text.rstrip("\n").split("\n")
    if len(lines) != 7 or not lines[2].startswith("tolerance: "):
        return False
    tol = float(lines[2].removeprefix("tolerance: "))
    verdict = {}
    for axis, line in zip("XYZ", lines[3:6]):
        word, _, residual = line.removeprefix(f"{axis}: ").partition(" (residual ")
        passed = word == "pass"
        if passed != (float(residual.rstrip(")")) <= tol):
            return False
        verdict[axis] = passed
    if lines[6] != ", ".join(f"{a}: {'pass' if verdict[a] else 'FAIL'}" for a in "XYZ"):
        return False
    kinds = {f["kind"] for f in defect.get("factors", [defect])}
    if kinds <= SPIN_CONSERVING:
        expected = {"X": True, "Y": True, "Z": True}
    elif defect["kind"] in ("x1", "x4"):
        expected = {"X": True, "Y": False, "Z": False}
    else:
        expected = {"X": True}
    return all(verdict[axis] == value for axis, value in expected.items())
