"""Tests of the benchmark harness itself (not of fracdelay).

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fracdelay  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_lists_repeat_for_a_seed_and_differ_between_seeds(name, tmp_path):
    wl = workloads.WORKLOADS[name]

    def described(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        return [op.describe() for op in wl.build(seed, workdir)]

    first, again, other = described(11, "a"), described(11, "b"), \
        described(12, "c")
    assert first == again
    assert first != other
    assert len(first) == len(other)


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, None, "op", "harness", 0.0, 10.0),
        S(1, 0, "certificates.certify", "certificates", 1.0, 9.0),
        S(2, 1, "kernels.quad", "kernels", 2.0, 5.0, {"points": 64}),
        S(3, 2, "mlf.ml_scalar_array", "mlf", 2.5, 3.5, {"points": 10}),
        S(4, 1, "kernels.quad", "kernels", 6.0, 8.0, {"points": 32}),
        S(5, 0, "system.validate", "system", 9.5, 10.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {0: 1.5, 1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 0.5})
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans, ops=1).items()}
    assert m["harness.self_s"] == pytest.approx(1.5)
    assert m["certificates.self_s"] == pytest.approx(3.0)
    assert m["kernels.self_s"] == pytest.approx(4.0)
    assert m["mlf.self_s"] == pytest.approx(1.0)
    assert m["system.self_s"] == pytest.approx(0.5)
    assert m["trace.op_s"] == pytest.approx(10.0)
    assert m["trace.self_sum_ratio"] == pytest.approx(1.0)
    assert m["kernels.quad.calls"] == 2
    assert m["kernels.quad.points_per_call"] == pytest.approx(48.0)
    assert m["certificates.quad_share"] == pytest.approx(5.0 / 8.0)
    assert m["mlf.points_per_s"] == pytest.approx(10.0)


def test_self_time_clips_and_merges_overlapping_children():
    S = tracing.Span
    spans = [S(0, None, "op", "harness", 0.0, 10.0),
             S(1, 0, "a", "cli", 1.0, 4.0),
             S(2, 0, "b", "cli", 3.0, 6.0),
             S(3, 0, "c", "cli", 9.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_failures_are_counted_per_sample():
    ops = [workloads.Op(f"op{i}", 1, None) for i in range(3)]
    checks = workloads.Checks()
    checks.require("op0", run.OP_RAISED, False)
    checks.require("op2", "some check", False)
    # op0 raised in one of its two samples; op2 failed a check of its output
    samples = [(0, 1.0, 1.0, False), (1, 1.0, 1.0, True),
               (2, 1.0, 1.0, True), (0, 1.0, 1.0, True),
               (1, 1.0, 1.0, True), (2, 1.0, 1.0, True)]
    assert run.count_failed(ops, samples, checks) == 3


def _module_state():
    state = {}
    for key, mod in sys.modules.items():
        if key == "fracdelay" or key.startswith("fracdelay."):
            for name, value in vars(mod).items():
                state[(key, name)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for attr, member in vars(value).items():
                        state[(key, name, attr)] = member
    return state


def test_tracer_restores_every_wrapped_attribute():
    before = _module_state()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _module_state()
        # re-bound names are wrapped too, not only the defining module's
        assert fracdelay.certify is not before[("fracdelay", "certify")]
        assert (fracdelay.kernels.ml_scalar_array
                is not before[("fracdelay.kernels", "ml_scalar_array")])
        assert (fracdelay.certificates.phi_alpha_l1
                is not before[("fracdelay.certificates", "phi_alpha_l1")])
        assert (vars(fracdelay.kernels.Kernels)["e_ml"]
                is not before[("fracdelay.kernels", "Kernels", "e_ml")])
    after = _module_state()
    changed = [k for k in before if during[k] is not before[k]]
    assert len(changed) > len(tracing.WRAP_SPECS)
    assert all(after[k] is before[k] for k in before)
    assert after.keys() == before.keys()


@pytest.mark.parametrize("name", ["certify-grid", "simulate-long",
                                  "verify-bounds"])
def test_traced_outputs_equal_untraced_outputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    op = wl.build(3, tmp_path)[0]
    plain = wl.fingerprint(op())
    tracer = tracing.Tracer()
    with tracer.installed():
        root = tracer.open("op", "harness")
        traced = op(tracer)
        tracer.close(root)
    assert wl.fingerprint(traced) == plain
    assert wl.fingerprint(op()) == plain
    m = dict(tracing.layer_metrics(tracer.spans, ops=1))
    assert m["trace.self_sum_ratio"][0] == pytest.approx(1.0, rel=1e-9)
    assert len(tracer.spans) > 1


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170, check=False)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_named_metric_is_reported(trace, section):
    proc = _run(["--workload", "verify-bounds", "--seed", "5", "--seconds",
                 "0", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK[section]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    table = "\n".join(lines[:-1])
    for name in names + ["failed_ratio", "check_ratio.max"]:
        assert f"  {name} " in table
    assert json.loads(lines[0])["provenance"]["seed"] == 5


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "certify-grid", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaled_timer_leaves_out_its_sampling_and_keeps_errors():
    timer = hostspeed.ScaledTimer()
    out, error, wall, scaled = timer.measure(lambda: time.sleep(0.6) or 7)
    assert (out, error) == (7, None)
    # the handler ran about twice during the sleep, which still ended at
    # its deadline: the handler's time is left out of the op's
    assert 0.5 < wall < 0.6
    assert scaled > 0.0

    def boom():
        raise ValueError("boom")

    out, error, wall, _ = timer.measure(boom)
    assert out is None and isinstance(error, ValueError)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the child-process reference is never timed during the call
    timer = hostspeed.ScaledTimer(hostspeed.SPAWN)
    _, _, wall, _ = timer.measure(lambda: time.sleep(0.6))
    assert wall >= 0.6
