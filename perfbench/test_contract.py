"""BENCHMARK.json names exactly the workloads and metrics the benchmark reports."""

import json
from pathlib import Path

import layers
import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    got = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert got == run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    got = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert got == layers.UNITS
