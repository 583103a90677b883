"""Checks of the benchmark itself: the tracer, and a tiny-size smoke run of
every workload through run.py exactly as the benchmark command runs it.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
from spans import Target, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, workdir, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny", "--workdir", str(workdir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke(workload, tmp_path):
    proc = run_bench(workload, 0, tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert record["machine"]["threads_pinned"]
    # every part of the rotation had a call; decode_lm and adapt rotate
    assert set(record["call_s"]["untraced"]) == {str(k) for k in range(len(record["parts"]))}
    assert (len(record["parts"]) > 1) == (workload != "train_source")
    # every set-up repetition and every timed call wrote identical outputs
    for key, seen in record["digests"].items():
        assert len(set(seen)) == 1, key
    assert not list(tmp_path.iterdir()), "the run left its scratch files behind"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke(workload, tmp_path):
    proc = run_bench(workload, 1, tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"]
    # one traced call per untraced one, paired on the same part
    assert len(record["trace_pairs_s"]) == sum(map(len, record["call_s"]["traced"].values()))
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert not [name for name, m in metrics.items() if "absent" in m]
    assert metrics["cli.main.self_s"]["value"] > 0
    assert metrics["data.load_manifest.calls"]["value"] >= 1
    if workload == "train_source":
        assert metrics["decoder.lm_beam_decode.calls"]["value"] == 0
        assert metrics["ngram_lm.next_log_probs.calls"]["value"] == 0
        assert metrics["recognizer.backward.calls"]["value"] > 0
    if workload == "decode_lm":
        assert metrics["recognizer.backward.calls"]["value"] == 0
        assert metrics["decoder.lm_beam_decode.calls"]["value"] > 0
    if workload == "adapt":
        assert metrics["trainer.make_pseudo_label.calls"]["value"] > 0
        assert 0 < metrics["trainer.pseudo_label_yield"]["value"] <= 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "adapt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_per_layer_names_match_benchmark_spec():
    declared = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert set(layers.metric_names()) <= declared


@pytest.fixture
def fake_pkg(monkeypatch):
    """fakepkg.core defines work() and Box.meth(); fakepkg.user imports work."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def work(x):
        return core.inner(x) * 2

    class Box:
        def meth(self, x):
            return x - 1

    core.inner, core.work, core.Box = inner, work, Box
    user.work = work
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_tracer_wraps_every_binding_and_restores(fake_pkg):
    core, user = fake_pkg
    originals = core.work, user.work, core.inner, core.Box.__dict__["meth"]
    hits = []
    tr = Tracer("fakepkg", [
        Target("fakepkg.core", "work", lambda t, a, k, r: hits.append(r)),
        Target("fakepkg.core", "inner"),
        Target("fakepkg.core", "Box.meth"),
        Target("fakepkg.core", "gone"),
    ])
    tr.install()
    assert core.work is not originals[0] and user.work is core.work
    assert user.work(1) == 4  # outside an operation: no span
    with tr.operation(0, "timed"):
        assert user.work(1) == 4
        assert core.Box().meth(5) == 4
    tr.uninstall()
    assert (core.work, user.work, core.inner, core.Box.__dict__["meth"]) == originals
    assert tr.absent == {"core.gone": "fakepkg.core.gone not found"}
    assert hits == [4]
    stats = tr.per_op("timed")[0]
    assert stats["core.work"]["calls"] == 1 and stats["core.inner"]["calls"] == 1
    assert stats["core.meth"]["calls"] == 1
    assert stats["core.work"]["self_s"] <= stats["core.work"]["s"]
    assert stats["core.work"]["s"] >= stats["core.inner"]["s"]


def test_failing_hook_marks_metric_absent(fake_pkg):
    core, _ = fake_pkg

    def bad_hook(t, args, kwargs, result):
        raise KeyError("frames")

    tr = Tracer("fakepkg", [Target("fakepkg.core", "inner", bad_hook)])
    tr.install()
    with tr.operation(0, "timed"):
        assert core.work(1) == 4
    tr.uninstall()
    assert "core.inner hook" in tr.absent
    assert tr.per_op("timed")[0]["core.inner"]["calls"] == 1
