"""Self-tests of the benchmark: tiny variants of every workload, repeatable
traced counts, and tracing that leaves the program as it found it.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run
from tracer import Tracer
from workloads import WORKLOADS, make_corpus, write_config

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = (
    "numerics.taped_primitives_per_minibatch",
    "evaluation.encodes_per_window",
    "corpus.windows_used_ratio",
)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = HERE.parent) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_the_metrics_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == table


def test_timings_take_the_best_tenth_of_samples():
    assert run._fast([5.0, 1.0, 3.0]) == 1.0
    assert run._fast([float(v) for v in range(1, 21)]) == 1.5
    assert run._fast([float(v) for v in range(1, 21)], higher_is_better=True) == 19.5


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_runs_end_to_end(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    metrics = first["metrics"]
    assert metrics["trace.unattributed_s"]["value"] >= 0.0
    for span in run.SPANS:
        assert metrics[f"{span}.self_s"]["value"] <= metrics[f"{span}.s"]["value"] + 1e-9


def _module_state():
    """Every name bound in the itco modules and the traced classes."""
    from itco import model, numerics

    state = {key: dict(vars(mod)) for key, mod in sys.modules.items() if key.startswith("itco.")}
    for cls in (numerics.Tape, model.EncoderParams):
        state[cls.__qualname__] = dict(vars(cls))
    return state


@pytest.fixture()
def itco_importable():
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


@pytest.fixture()
def tiny_training(tmp_path, itco_importable):
    from itco import cli

    def itco(argv):
        assert cli.main([str(a) for a in argv]) == 0

    corpus = make_corpus(itco, tmp_path, "train", 2, seed=5)
    config = write_config(tmp_path, "train", 5, True, aligned_windows=True,
                          lr_schedule=[[1, 0.4]], clone_at=0)
    return ["train", "--corpus", corpus, "--config", config, "--out", str(tmp_path / "out")]


def test_traced_run_leaves_no_wrapper_behind(tiny_training):
    before = _module_state()
    result = child.run({"src": str(HERE.parent / "src"), "argv": tiny_training, "mode": "trace"},
                       start=time.perf_counter())
    assert result["exit_code"] == 0
    assert result["trace"]["spans"]["numerics.Tape.backward"]["calls"] == 100
    after = _module_state()
    assert after.keys() == before.keys()
    for key, names in before.items():
        changed = [name for name, value in names.items() if after[key].get(name) is not value]
        assert not changed, f"{key}: {changed}"


def test_missing_target_is_an_absent_layer(itco_importable, monkeypatch):
    from itco import trainer

    monkeypatch.delattr(trainer, "clone_symbols")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert "trainer.clone_symbols" in tracer.absent
    assert "trainer.detect_dead_symbols" not in tracer.absent


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-stride1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
