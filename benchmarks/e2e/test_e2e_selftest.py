"""Self-test of the end-to-end benchmark, on ``--smoke`` sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/e2e/test_e2e_selftest.py -q``.  It
checks the instrument, not the engine: the proxies must not change
what the program does, the layer budget must add up, inputs must be a
function of the seed, and a failing check must fail the command.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = list(run.wl.WORKLOADS)


@pytest.fixture(autouse=True, scope="module")
def out_dir():
    os.makedirs(run.OUT, exist_ok=True)


def smoke_spec(name: str, seed: int = 1) -> dict:
    return run.build_spec(name, seed, smoke=True)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_nothing_and_the_budget_adds_up(name):
    spec = smoke_spec(name)
    plain = run.run_child(spec)
    traced = run.run_child(spec, trace=True, check=True)
    assert traced["failures"] == []
    assert traced["counts"] == plain["counts"]
    assert traced["counts"]["firings"] == spec["reference"]

    layers = traced["layers"]
    budget = sum(layers[bucket] for bucket in run.BUDGET_BUCKETS)
    assert budget == pytest.approx(traced["run_s"], rel=0.01)
    # The span file (raw wall times) tells the same story, recomputed
    # independently.
    wall = traced["run_wall_s"]
    with open(spec["trace_file"], encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    totals = tracing.self_times(spans)
    assert sum(totals.values()) == pytest.approx(wall, rel=0.01)
    assert totals.get("match", 0.0) * traced["run_s"] / wall == (
        pytest.approx(layers["match.busy_s"])
    )
    roots = [span for span in spans if span["parent"] < 0]
    assert [span["name"] for span in roots] == [tracing.ROOT]


@pytest.mark.parametrize("name", WORKLOADS)
def test_idle_layers_read_exactly_zero(name):
    layers = run.run_child(smoke_spec(name), trace=True)["layers"]
    engine = run.wl.WORKLOADS[name].engine
    idle = []
    if engine["kind"] == "interpreter":
        idle += [k for k in layers if k.startswith(("locks.", "wm.undo."))]
    if not engine.get("durable"):
        idle += [k for k in layers if k.startswith("wm.storage.")]
    if "process" not in engine["matcher"]:
        idle += [k for k in layers if k.startswith("match.procpool.")]
    assert {k: layers[k] for k in idle if layers[k] != 0} == {}
    busy = {"manners_proc2": "match.procpool.roundtrips",
            "orders_durable": "wm.storage.fsyncs",
            "hot_2pl": "locks.denied", "hot_rc": "locks.victims"}
    if name in busy:
        assert layers[busy[name]] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    first, again, other = (
        smoke_spec(name, 1), smoke_spec(name, 1), smoke_spec(name, 2)
    )
    assert first["fact_digest"] == again["fact_digest"]
    assert first["fact_digest"] != other["fact_digest"]


def test_same_seed_same_counts():
    spec = smoke_spec("hot_rc")
    assert run.run_child(spec)["counts"] == run.run_child(spec)["counts"]


def test_manners_proc2_commits_what_manners_serial_commits():
    serial = run.run_child(smoke_spec("manners_serial"))
    proc2 = run.run_child(smoke_spec("manners_proc2"))
    assert serial["counts"] == proc2["counts"]


def test_broken_check_fails_the_command(monkeypatch, capsys):
    build = run.build_spec
    monkeypatch.setattr(
        run, "build_spec",
        lambda *args: {**build(*args), "break_check": True},
    )
    code = run.main(["--smoke", "--only", "hot_2pl", "--repeats", "1"])
    assert code != 0
    with open(os.path.join(run.OUT, "results.json"), encoding="utf-8") as f:
        results = json.load(f)
    assert results["end_to_end"]["hot_2pl"]["failed_share"] > 0
    assert "FAILED" in capsys.readouterr().out


def test_contract_names_the_registered_workloads():
    declared = [w["name"] for w in run.load_contract()["workloads"]]
    assert declared == WORKLOADS


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_output(trace, section, capsys):
    code = run.main(
        ["--workload", "hot_2pl", "--smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)]
    )
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in run.load_contract()[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
