"""Tests of the benchmark itself: seeding, gates and trace restoration.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import gates, run, tracing, workloads


@pytest.fixture(scope="module")
def program():
    return run.Program()


def _small(doc: dict, points: int) -> dict:
    return {**doc, "sweep": {**doc["sweep"], "points": points}}


def _gate(program, doc, rec):
    return program.gate(doc, rec, np.random.default_rng(0))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(workload):
    cycle = workloads.CYCLE[workload]
    texts = [
        [workloads.config_text(workloads.config(workload, seed, i)) for i in range(-1, cycle)]
        for seed in (3, 3, 4)
    ]
    assert texts[0] == texts[1]
    assert all(a != b for a, b in zip(texts[0], texts[2]))
    assert len(set(texts[0])) == len(texts[0])


def test_commands_keep_their_sizes_across_seeds():
    for seed in (1, 2):
        chain = workloads.describe(workloads.config("long_chain", seed, 0))
        assert (chain["elements"], chain["points"]) == (200, 300)
        bands = workloads.describe(workloads.config("comb_bands", seed, 1))
        assert (bands["elements"], bands["points"], bands["period"]) == (3, 3000, 1.0)


def test_perturbed_probability_fails_the_row(program, tmp_path):
    doc = _small(workloads.config("resonator_sweep", 1, 1), 40)
    rec = program.execute(doc, tmp_path)
    assert rec["exit"] == 0
    clean = _gate(program, doc, rec)
    assert (clean["failed"], clean["silent"]) == (0, 0)

    lines = rec["output"].split("\n")
    fields = lines[10].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[10] = ",".join(fields)
    bad = _gate(program, doc, {**rec, "output": "\n".join(lines)})
    assert bad["failed"] == 1
    assert bad["silent"] == 1
    assert bad["reasons"]["unitarity"] == 1


def test_perturbed_s_entry_fails_the_oracle(program, tmp_path):
    doc = _small(workloads.config("defect_table", 1, 1), gates.ORACLE_SAMPLE)
    rec = program.execute(doc, tmp_path)
    assert _gate(program, doc, rec)["failed"] == 0
    lines = rec["output"].split("\n")
    fields = lines[5].split(",")
    # A common phase keeps S unitary, so only the oracle can see it.
    s = np.array([float(x) for x in fields[2:34]]).reshape(16, 2)
    z = (s[:, 0] + 1j * s[:, 1]) * np.exp(1j * 1e-6)
    fields[2:34] = [repr(float(v)) for pair in zip(z.real, z.imag) for v in pair]
    lines[5] = ",".join(fields)
    bad = _gate(program, doc, {**rec, "output": "\n".join(lines)})
    assert bad["reasons"]["oracle_fail"] == 1
    assert bad["reasons"]["unitarity"] == 0
    assert bad["silent"] == 1


def test_dropped_band_point_fails_its_momentum(program, tmp_path):
    doc = _small(workloads.config("comb_bands", 1, 0), 200)
    rec = program.execute(doc, tmp_path)
    assert _gate(program, doc, rec)["failed"] == 0
    lines = rec["output"].split("\n")
    del lines[20]
    bad = _gate(program, doc, {**rec, "output": "\n".join(lines)})
    assert bad["reasons"]["bands_mismatch"] == 1
    assert bad["failed"] == 1


def test_wrong_check_verdict_is_caught(program, tmp_path):
    doc = workloads.config("defect_table", 1, 0)
    assert doc["defect"]["kind"] == "x1"
    rec = program.execute(doc, tmp_path)
    assert _gate(program, doc, rec)["check_pass"]
    forged = rec["output"].replace("Y: FAIL, Z: FAIL", "Y: pass, Z: pass")
    assert not _gate(program, doc, {**rec, "output": forged})["check_pass"]


def test_crashed_command_fails_all_its_momenta(program, tmp_path):
    doc = _small(workloads.config("resonator_sweep", 1, 0), 30)
    doc["sweep"]["k_min"] = -1.0
    rec = program.execute(doc, tmp_path)
    assert rec["exit"] == 1 and "k_min" in rec["error"]
    rows = _gate(program, doc, rec)
    assert rows["attempted"] == rows["failed"] == 30


def test_malformed_csv_is_rejected():
    with pytest.raises(gates.MalformedOutput):
        gates.parse_csv("# spinpoint-csv v1 device\nk,E\n1,1\n", "device")


def test_tracing_restores_every_function(program, tmp_path):
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    doc = _small(workloads.config("comb_bands", 1, 1), 20)
    with tracer:
        assert program.cli.main is not before[("spinpoint.cli", "main")]
        assert program.device.propagation is not before[("spinpoint.device", "propagation")]
        tracer.current_command = 0
        rec = program.execute(doc, tmp_path)
    assert rec["exit"] == 0
    assert tracing.changed_since(before) == []

    spans = tracer.arrays()
    times = tracing.layer_times(spans, np.zeros(1, dtype=int), 1)
    calls = dict(zip(tracing.NAMES, times["calls"][0]))
    assert calls["cli.main"] == 1 and calls["bands.dispersion"] == 1
    assert calls["bands.cell_transfer"] == 20
    assert calls["scattering.propagation"] == 20 * 2
    assert np.all(times["self_s"] <= times["total_s"] + 1e-12)
    root = tracing.NAMES.index("cli.main")
    assert times["self_s"][0].sum() == pytest.approx(times["total_s"][0, root], rel=1e-9)


def test_tracing_restores_after_an_exception():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError
    assert tracing.changed_since(before) == []


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
