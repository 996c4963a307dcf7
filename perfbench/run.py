"""Benchmark of the ``spinpoint`` CLI: seeded workloads, end-to-end and layer metrics.

One closed-loop client on one thread calls ``spinpoint.cli.main`` in
process with ``--config <generated.json> --out <file>`` and the default
``--threads 1``, one command after another, for ``--seconds`` of summed
command time (always ending on a whole cycle of the workload's shapes).
Every output row is gated for correctness outside the timed region.

    python3 perfbench/run.py --workload resonator_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's first cycle of commands repeatedly, each once untraced and once
with layer wrappers installed, and prints the per-layer metrics.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, where ``attempted``/``failed`` count CLI commands; momenta
that fail a gate are reported through ``good_k_per_s`` and ``fail_frac``.

    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --compare DIR_A DIR_B

The first runs every workload, untraced and traced, and prints one table
plus whether each workload's predicted dominant layer held.  The second
compares the CSVs two runs saved (``perfbench/out/<workload>/seed<n>/e2e``)
and reports the files that changed and the largest absolute difference
per column.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import gates, probe, tracing, workloads  # noqa: E402

SETUP_RUNS = 3
#: Seconds of command time between two machine-speed probes.
PROBE_EVERY_S = 0.25
IMPORTTIME_RUNS = 3
IMPORT_MODULES = (
    "spinpoint",
    "spinpoint.cli",
    "spinpoint.extensions",
    "spinpoint.scattering",
    "spinpoint.device",
    "spinpoint.bands",
    "scipy.optimize",
)
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "cmd_s_p50": "s",
    "good_k_per_s": "1/s",
    "peak_rss_mb": "MB",
}
ROW_COUNTS = ("attempted", "failed", "singular", "unitarity", "oracle_fail")

#: Layer group each workload is expected to spend most self time in.
PREDICTED = {
    "defect_table": ("cli.run self time", ("cli.run",)),
    "resonator_sweep": ("transfer_to_scattering", ("scattering.transfer_to_scattering",)),
    "long_chain": (
        "composition",
        ("extensions.defect_matrix", "scattering.propagation", "device.total_transfer"),
    ),
    "comb_bands": ("dispersion self time", ("bands.dispersion",)),
}


def per_layer_names() -> list[str]:
    names = [f"{fn}.{kind}" for fn in tracing.NAMES for kind in ("calls", "total_s", "self_s")]
    names.append("scattering.transfer_to_scattering.raised")
    names += [f"rows.{count}" for count in ROW_COUNTS]
    names.append("bands.branches")
    names += [f"setup.import.{mod}_s" for mod in IMPORT_MODULES]
    names.append("trace.overhead_frac")
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_frac":
        return "1"
    return "count"


class Program:
    """The ``spinpoint`` package of this checkout plus its test oracle."""

    def __init__(self):
        sys.path.insert(0, str(TESTS))
        sys.path.insert(0, str(SRC))
        try:
            import matching_oracle
            import scipy
            import spinpoint
            import spinpoint.bands
            import spinpoint.cli
            import spinpoint.device
        except ImportError as exc:
            raise SystemExit(
                f"perfbench: cannot import spinpoint and its test oracle from {ROOT}: {exc}"
            ) from None
        if Path(spinpoint.__file__).resolve().parent.parent != SRC:
            raise SystemExit(f"perfbench: spinpoint resolved to {spinpoint.__file__}, not {SRC}")
        self.cli = spinpoint.cli
        self.bands = spinpoint.bands
        self.device = spinpoint.device
        self.oracle = matching_oracle.smatrix_by_matching
        self.numpy = np.__version__
        self.scipy = scipy.__version__

    def execute(self, doc: dict, workdir: Path) -> dict:
        """Run one CLI command in process; only ``cli.main`` is timed."""
        cfg, out = workdir / "cmd.json", workdir / "cmd.out"
        text = workloads.config_text(doc)
        cfg.write_text(text, encoding="utf-8")
        out.unlink(missing_ok=True)
        argv = [doc["command"], "--config", str(cfg), "--out", str(out)]
        sink = io.StringIO()
        error = None
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit):
                code = None
                error = traceback.format_exc()
            wall = perf_counter() - t0
        if code != 0 and error is None:
            error = sink.getvalue()
        output = out.read_text(encoding="utf-8") if code == 0 else ""
        return {
            **workloads.describe(doc),
            "config_sha256": sha256(text.encode()).hexdigest(),
            "csv_sha256": sha256(output.encode()).hexdigest(),
            "wall_s": wall,
            "exit": code,
            "error": error,
            "output": output,
        }

    def gate(self, doc: dict, rec: dict, rng: np.random.Generator) -> dict:
        """Classify every momentum of a finished command (untimed)."""
        command, sweep = doc["command"], doc.get("sweep")
        if rec["exit"] != 0:
            n = sweep["points"] if sweep else 0
            return gates.RowReport(attempted=n, failed=n).as_dict()
        if command == "check":
            ok = gates.check_report(rec["output"], doc["defect"])
            return {"attempted": 0, "failed": 0, "check_pass": ok}
        config = self.cli.parse_config(workloads.config_text(doc))
        if command == "scatter":
            device = self.device.Device((config.defect,))
            report = gates.check_scatter(
                rec["output"], sweep, rng, lambda k: self.oracle(device, k)
            )
        elif command == "device":
            report = gates.check_device(
                rec["output"],
                sweep,
                config.incident,
                rng,
                lambda k: self.oracle(config.device, k),
            )
        else:
            report = gates.check_bands(
                rec["output"], sweep, lambda grid: self._scalar_route(config.comb, grid)
            )
        return report.as_dict()

    def _scalar_route(self, comb, grid):
        ks, qs = [], []
        for scalar in self.bands.spin_decouple(comb):
            k, q, _ = self.bands.scalar_dispersion(scalar, grid)
            ks.append(k)
            qs.append(q)
        return np.concatenate(ks), np.concatenate(qs)


def _python_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def measure_setup(runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import spinpoint.cli`` returns.

    One untimed run first fills the file cache and bytecode caches.  These
    times are not probe-scaled: the import runs in a child process, whose
    speed the probe in this process does not follow.
    """
    code = "import spinpoint.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for i in range(runs + 1):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=_python_env(), cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if line != b"ready\n" or status != 0:
            raise SystemExit("perfbench: a fresh interpreter could not import spinpoint.cli")
        if i:
            samples.append(elapsed)
    return samples


def measure_import_times(runs: int) -> dict:
    """Median cumulative ``-X importtime`` seconds of IMPORT_MODULES."""
    found: dict = {mod: [] for mod in IMPORT_MODULES}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spinpoint.cli"],
            capture_output=True,
            text=True,
            env=_python_env(),
            cwd=ROOT,
            timeout=120,
            check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for mod in found:
            found[mod].append(seen.get(mod, 0.0))
    return {mod: statistics.median(values) for mod, values in found.items()}


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def _out_dir(workload: str, seed: int, trace: int) -> Path:
    path = OUT / workload / f"seed{seed}" / ("trace" if trace else "e2e")
    shutil.rmtree(path, ignore_errors=True)
    (path / "csv").mkdir(parents=True)
    return path


def _keep(path: Path, index: int, doc: dict, rec: dict) -> None:
    """Save the config and output of one command for ``--compare``."""
    suffix = "txt" if doc["command"] == "check" else "csv"
    saved = path / "csv" / f"{index:05d}-{doc['command']}"
    saved.with_suffix(f".{suffix}").write_text(rec["output"], encoding="utf-8")
    saved.with_suffix(".json").write_text(workloads.config_text(doc), encoding="utf-8")


def _problems(rec: dict) -> list[str]:
    """Reasons a gated command makes the run incorrect."""
    rows, out = rec["rows"], []
    if rows.get("malformed"):
        out.append(f"command {rec['id']}: malformed output: {rows['malformed']}")
    if rows.get("silent"):
        out.append(f"command {rec['id']}: {rows['silent']} silently wrong rows")
    if rows.get("check_pass") is False:
        out.append(f"command {rec['id']}: check report gave an unexpected verdict")
    return out


def _gate(program: Program, doc: dict, rec: dict, index: int, seed: int) -> dict:
    """Attach the row classification of command ``index`` to its record."""
    rec["id"] = index
    rng = np.random.default_rng([seed, index + 1, 0x5EED])
    try:
        rec["rows"] = program.gate(doc, rec, rng)
    except gates.MalformedOutput as exc:
        n = doc["sweep"]["points"]
        rec["rows"] = {**gates.RowReport(attempted=n, failed=n).as_dict(), "malformed": str(exc)}
    return rec


def _run_and_gate(program: Program, doc: dict, index: int, seed: int, workdir: Path) -> dict:
    return _gate(program, doc, program.execute(doc, workdir), index, seed)


def _sum_rows(records: list[dict]) -> dict:
    total = {"attempted": 0, "failed": 0, **dict.fromkeys(gates.REASONS, 0)}
    for rec in records:
        rows = rec["rows"]
        total["attempted"] += rows["attempted"]
        total["failed"] += rows["failed"]
        for reason, count in rows.get("reasons", {}).items():
            total[reason] += count
    return total


def _public(rec: dict) -> dict:
    return {key: value for key, value in rec.items() if key != "output"}


def end_to_end(program: Program, args) -> dict:
    workload, seed = args.workload, args.seed
    outdir = _out_dir(workload, seed, 0)
    record = run_record(args)
    setup = measure_setup(SETUP_RUNS)
    warm_doc = workloads.config(workload, seed, -1)
    warm = _run_and_gate(program, warm_doc, -1, seed, outdir)
    records, problems, spent, index = [], _problems(warm), 0.0, 0
    cycle = workloads.CYCLE[workload]
    probes, block = [probe.probe()], []
    while index == 0 or spent < args.seconds:
        for _ in range(cycle):
            doc = workloads.config(workload, seed, index)
            rec = program.execute(doc, outdir)
            spent += rec["wall_s"]
            block.append(rec)
            if sum(r["wall_s"] for r in block) >= PROBE_EVERY_S:
                _scale(block, probes)
                block = []
            _gate(program, doc, rec, index, seed)
            problems += _problems(rec)
            if index < cycle:
                _keep(outdir, index, doc, rec)
            del rec["output"]
            records.append(rec)
            index += 1
    if block:
        _scale(block, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sweeps = [r for r in records if r["command"] != "check"]
    rows = _sum_rows(records)
    good = rows["attempted"] - rows["failed"]
    raw = {
        "cmd_s_p50": statistics.median(r["wall_s"] for r in sweeps),
        "good_k_per_s": good / spent,
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_s_p50": statistics.median(r["scaled_s"] for r in sweeps),
        "good_k_per_s": good / sum(r["scaled_s"] for r in records),
        "peak_rss_mb": peak_rss_mb,
    }
    crashed = [r for r in records if r["exit"] != 0]
    record.update(
        numpy=program.numpy,
        scipy=program.scipy,
        setup_samples_s=setup,
        measured_s=spent,
        probe_samples_s=probes,
        unscaled=raw,
        warmup=_public(warm),
        commands=records,
        rows=rows,
        fail_frac=rows["failed"] / rows["attempted"],
        metrics=metrics,
        problems=problems,
    )
    (outdir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    tail = _tail_percentile([r["scaled_s"] for r in sweeps])
    print(
        f"workload {workload}  seed {seed}  untraced  {len(records)} commands  {spent:.2f} s measured;"
        f" command times scaled to reference speed by probes, raw in brackets"
    )
    print(f"  setup_s       {metrics['setup_s']:.4f} s    median of {len(setup)} fresh imports")
    print(
        f"  cmd_s_p50     {metrics['cmd_s_p50']:.4f} s    median of {len(sweeps)} sweep commands"
        + (f"; p{tail[0]} {tail[1]:.4f} s" if tail else "")
        + f" [{raw['cmd_s_p50']:.4f} s]"
    )
    print(
        f"  good_k_per_s  {metrics['good_k_per_s']:.1f} 1/s  {good} good momenta"
        f" [{raw['good_k_per_s']:.1f} 1/s]"
    )
    reasons = ", ".join(f"{r} {rows[r]}" for r in gates.REASONS)
    print(
        f"  fail_frac     {record['fail_frac']:.4f} 1    {rows['failed']}/{rows['attempted']} momenta ({reasons})"
    )
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    print(f"  commands failed: {len(crashed)}; record: {outdir.relative_to(ROOT)}/record.json")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(crashed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def _scale(block: list[dict], probes: list[float]) -> None:
    """Scale a block of commands by the probes timed just before and after it."""
    probes.append(probe.probe())
    factor = probe.REFERENCE_S / ((probes[-2] + probes[-1]) / 2)
    for rec in block:
        rec["scaled_s"] = rec["wall_s"] * factor


def _tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, float(np.percentile(samples, pct))


def traced(program: Program, args) -> dict:
    workload, seed = args.workload, args.seed
    outdir = _out_dir(workload, seed, 1)
    record = run_record(args)
    imports = measure_import_times(IMPORTTIME_RUNS)
    cycle = workloads.CYCLE[workload]
    docs = [workloads.config(workload, seed, i) for i in range(cycle)]
    warm = _run_and_gate(program, workloads.config(workload, seed, -1), -1, seed, outdir)

    before = tracing.snapshot()
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    first, problems, passes, failed = [], _problems(warm), 0, 0
    while passes == 0 or untraced_s + traced_s < args.seconds:
        for i, doc in enumerate(docs):
            plain = program.execute(doc, outdir)
            tracer.current_command = passes * cycle + i
            with tracer:
                wrapped = program.execute(doc, outdir)
            if wrapped["csv_sha256"] != plain["csv_sha256"]:
                problems.append(f"command {i}: output changed under tracing")
            untraced_s += plain["wall_s"]
            traced_s += wrapped["wall_s"]
            failed += wrapped["exit"] != 0
            if passes == 0:
                _gate(program, doc, plain, i, seed)
                problems += _problems(plain)
                first.append(_public(plain))
        passes += 1
    restored = tracing.changed_since(before)
    if restored:
        problems.append(f"not restored after tracing: {restored}")
    tracer.save(outdir / "spans.npz")

    spans = tracer.arrays()
    groups = np.arange(passes * cycle) // cycle
    times = tracing.layer_times(spans, groups, passes)
    metrics = {}
    for fid, name in enumerate(tracing.NAMES):
        metrics[f"{name}.calls"] = int(times["calls"][0, fid])
        metrics[f"{name}.total_s"] = float(np.median(times["total_s"][:, fid]))
        metrics[f"{name}.self_s"] = float(np.median(times["self_s"][:, fid]))
    fid = tracing.NAMES.index("scattering.transfer_to_scattering")
    metrics["scattering.transfer_to_scattering.raised"] = tracer.raised[fid] // passes
    rows = _sum_rows(first)
    for count in ROW_COUNTS:
        metrics[f"rows.{count}"] = rows[count]
    metrics["bands.branches"] = sum(r["rows"].get("branches", 0) for r in first)
    for mod, seconds in imports.items():
        metrics[f"setup.import.{mod}_s"] = seconds
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    verdict = dominant_layer(workload, metrics)
    record.update(
        numpy=program.numpy,
        scipy=program.scipy,
        passes=passes,
        calls_repeat_exactly=bool((times["calls"] == times["calls"][0]).all()),
        untraced_s=untraced_s,
        traced_s=traced_s,
        commands=first,
        rows=rows,
        metrics=metrics,
        verdict=verdict,
        problems=problems,
    )
    (outdir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    total = metrics["cli.main.total_s"]
    print(f"workload {workload}  seed {seed}  traced  {cycle} commands x {passes} passes")
    print(f"  {'function':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self share':>10s}")
    for name in tracing.NAMES:
        own = metrics[f"{name}.self_s"]
        print(
            f"  {name:44s} {metrics[f'{name}.calls']:8d} {metrics[f'{name}.total_s']:10.4f}"
            f" {own:10.4f} {own / total:10.1%}"
        )
    print(
        f"  rows: {rows['failed']}/{rows['attempted']} failed, singular {rows['singular']},"
        f" oracle_fail {rows['oracle_fail']}; transfer_to_scattering raised"
        f" {metrics['scattering.transfer_to_scattering.raised']}; branches {metrics['bands.branches']}"
    )
    print(
        "  import s: "
        + ", ".join(f"{mod} {imports[mod]:.3f}" for mod in IMPORT_MODULES)
    )
    print(f"  trace overhead {metrics['trace.overhead_frac']:.1%} ({traced_s:.2f} s traced vs {untraced_s:.2f} s untraced)")
    print(f"  {verdict['text']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return {
        "correct": not problems,
        "attempted": passes * cycle,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": per_layer_unit(name)} for name in per_layer_names()},
    }


def dominant_layer(workload: str, metrics: dict) -> dict:
    """Whether the predicted layer group has the largest self time of any traced function."""
    label, members = PREDICTED[workload]
    total = metrics["cli.main.total_s"]
    share = sum(metrics[f"{m}.self_s"] for m in members) / total
    others = {
        name: metrics[f"{name}.self_s"] / total for name in tracing.NAMES if name not in members
    }
    rival = max(others, key=others.get)
    held = share >= others[rival]
    text = (
        f"predicted dominant layer on {workload}: {label} ({' + '.join(members)}) "
        f"{share:.1%} of command time; largest other {rival} {others[rival]:.1%}; "
        + ("held" if held else "did NOT hold")
    )
    return {"layer": label, "share": share, "largest_other": rival, "held": held, "text": text}


def run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process."""
    rows = []
    for workload in workloads.WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]  # fmt: skip
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results.append(json.loads(lines[-1]))
        record = json.loads((OUT / workload / f"seed{args.seed}" / "e2e" / "record.json").read_text())
        trace_record = json.loads(
            (OUT / workload / f"seed{args.seed}" / "trace" / "record.json").read_text()
        )
        rows.append((workload, results, record, trace_record))
    print()
    print(f"{'workload':16s} {'setup_s':>9s} {'cmd_s_p50':>16s} {'good_k_per_s':>22s} {'fail_frac':>20s} {'peak_rss_mb':>11s}  dominant layer")
    for workload, (e2e, _), record, trace_record in rows:
        m = {k: v["value"] for k, v in e2e["metrics"].items()}
        n_sweeps = sum(1 for c in record["commands"] if c["command"] != "check")
        r = record["rows"]
        verdict = trace_record["verdict"]
        print(
            f"{workload:16s} {m['setup_s']:7.3f} s {m['cmd_s_p50']:8.4f} s (n={n_sweeps:3d})"
            f" {m['good_k_per_s']:9.1f} 1/s (n={r['attempted'] - r['failed']:6d})"
            f" {record['fail_frac']:6.4f} ({r['failed']:5d}/{r['attempted']:6d})"
            f" {m['peak_rss_mb']:8.1f} MB  {verdict['layer']} {verdict['share']:.0%}"
            f" {'held' if verdict['held'] else 'did NOT hold'}"
        )
    correct = all(e2e["correct"] and tr["correct"] for _, (e2e, tr), _, _ in rows)
    print("all outputs correct" if correct else "SOME OUTPUTS INCORRECT: see PROBLEM lines above")
    return 0 if correct else 1


def compare(dir_a: Path, dir_b: Path) -> int:
    """Report changed CSVs between two runs and the largest difference per column."""
    files_a = {p.name: p for p in (dir_a / "csv").glob("*")}
    files_b = {p.name: p for p in (dir_b / "csv").glob("*")}
    common = sorted(set(files_a) & set(files_b))
    changed, largest = [], {}
    for name in common:
        text_a, text_b = files_a[name].read_text(), files_b[name].read_text()
        if text_a == text_b:
            continue
        changed.append(name)
        if not name.endswith(".csv"):
            continue
        command = text_a.split("\n", 1)[0].rsplit(" ", 1)[-1]
        try:
            a, b = gates.parse_csv(text_a, command), gates.parse_csv(text_b, command)
        except gates.MalformedOutput as exc:
            print(f"{name}: {exc}")
            continue
        if a.shape != b.shape:
            print(f"{name}: {a.shape[0]} rows vs {b.shape[0]} rows")
            continue
        both_nan = np.isnan(a) & np.isnan(b)
        diff = np.where(both_nan, 0.0, np.abs(a - b))
        diff = np.where(np.isnan(diff), np.inf, diff)
        for col, value in zip(gates.HEADERS[command].split(","), diff.max(axis=0)):
            key = (command, col)
            largest[key] = max(largest.get(key, 0.0), float(value))
    print(f"files compared {len(common)}, changed {len(changed)}")
    for only, side in ((set(files_a) - set(files_b), dir_a), (set(files_b) - set(files_a), dir_b)):
        if only:
            print(f"only in {side}: {', '.join(sorted(only))}")
    for name in changed:
        print(f"  changed: {name}")
    for (command, col), value in sorted(largest.items()):
        if value:
            print(f"  {command:8s} {col:24s} largest |difference| {value:.3e}")
    fingerprints = []
    for path in (dir_a, dir_b):
        record = path / "record.json"
        commands = json.loads(record.read_text())["commands"] if record.exists() else []
        fingerprints.append({c["id"]: c["csv_sha256"] for c in commands})
    shared = set(fingerprints[0]) & set(fingerprints[1])
    if shared:
        differ = sum(1 for i in shared if fingerprints[0][i] != fingerprints[1][i])
        print(f"fingerprints of {len(shared)} shared commands: {differ} differ")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    program = Program()
    if args.trace:
        result = traced(program, args)
    else:
        result = end_to_end(program, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
