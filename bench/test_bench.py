"""Tests of the benchmark itself: seeded inputs, failure counting, tracing.

    python3 -m pytest bench -q
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from parmm import LmsrGenerator, NormFee, ParmmError, SolverDiverged, initialize  # noqa: E402


def _inputs_bytes(name: str, seed: int, workdir: Path) -> bytes:
    wl = workloads.WORKLOADS[name](seed, workdir)
    return json.dumps([wl.spec, list(itertools.islice(wl.ops(), 500))]).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    assert _inputs_bytes(name, 7, tmp_path) == _inputs_bytes(name, 7, tmp_path)
    assert _inputs_bytes(name, 7, tmp_path) != _inputs_bytes(name, 8, tmp_path)


class _Flaky(workloads.Workload):
    """Every third operation raises a ParmmError; the rest return 1."""

    name = "flaky"

    def ops(self):
        return itertools.count()

    def prepare(self, market, i):
        def call():
            if i % 3 == 2:
                raise SolverDiverged("forced")
            return 1

        def verify(result):
            assert result == 1

        return call, verify


def test_forced_parmm_error_counts_as_failed_operation(tmp_path):
    wl = _Flaky(0, tmp_path)
    times, failed = run.run_ops(wl, None, wl.ops(), count=9)
    assert len(times) == 9
    assert sum(failed) == 3
    assert issubclass(SolverDiverged, ParmmError)


def test_failed_check_fails_the_run_instead_of_counting(tmp_path):
    class Wrong(_Flaky):
        def prepare(self, market, i):
            def verify(result):
                raise workloads.CheckFailed("wrong output")

            return (lambda: 1), verify

    with pytest.raises(workloads.CheckFailed):
        wl = Wrong(0, tmp_path)
        run.run_ops(wl, None, wl.ops(), count=3)


def test_closed_form_lmsr_bundle_trade_counts_three_solves_and_no_gradients():
    st = initialize(LmsrGenerator(1.0, 2), price=[0.4, 0.6], fee=NormFee(0.01, "l1"), strict=False)
    rec = st.records[0]
    bundle = LmsrGenerator(1.0, 2).grad(np.array([0.5, 0.5])) - rec.liability
    tr = tracer.Tracer()
    with tr:
        tr.call(lambda: st.execute_trade(bundle=bundle))
    metrics, samples = tracer.layer_metrics(tr.spans, 1)
    assert metrics["convex_core.solves_per_op"] == 3
    assert metrics["convex_core.grad_calls_per_solve"] == 0
    assert samples["convex_core.grad_calls_per_solve"] == 3
    assert metrics["convex_core.liability_calls_per_op"] == 1


def test_tracer_patches_engine_bindings_and_restores_them():
    import parmm.convex_core
    import parmm.engine

    original = parmm.engine.conjugate_value
    grad = vars(LmsrGenerator)["grad"]
    assert original is parmm.convex_core.conjugate_value
    with tracer.Tracer():
        assert parmm.engine.conjugate_value is not original
        assert parmm.convex_core.conjugate_value is parmm.engine.conjugate_value
        assert vars(LmsrGenerator)["grad"] is not grad
    assert parmm.engine.conjugate_value is original
    assert vars(LmsrGenerator)["grad"] is grad


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
