"""Self-test of the benchmark: its checks pass real output and reject wrong laws.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from workloads import MULTI_SOURCES, RING_P, TWO_SOURCES, WORKLOADS, Observation, observe

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _wrong_laws(name):
    """Known-wrong laws per workload, in the form the workload's judge takes."""
    if name == "free-long":
        # the right law is itself flat; a walker that ignored its
        # preparation would follow the p = 0 packet instead
        return {"p=0 packet": lambda xi, tau: checks.free_pmf(xi, tau, 0.0)}
    if name == "ring-lock":
        return {"unlocked walk": RING_P}
    wrong = {"flat": lambda xi, tau: np.ones(len(xi))}
    if name == "multislit-trained":
        wrong["sharp cosine"] = lambda xi, tau: checks.cosine_law(xi, tau, MULTI_SOURCES)
    return wrong


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def real_run(request, tmp_path_factory):
    import latticemc.cli as cli

    workload = WORKLOADS[request.param]
    outdir = tmp_path_factory.mktemp(workload.name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workload.argv(7, outdir)) == 0
    return workload, outdir


def test_check_passes_real_output(real_run):
    workload, outdir = real_run
    verdicts = workload.check(outdir)
    assert all(v.ok for v in verdicts), verdicts


def test_check_rejects_wrong_law(real_run):
    workload, outdir = real_run
    for label, law in _wrong_laws(workload.name).items():
        verdicts = workload.check(outdir, law=law)
        assert not all(v.ok for v in verdicts), (label, verdicts)


def test_check_rejects_output_drawn_from_wrong_law(real_run):
    workload, outdir = real_run
    obs = observe(outdir)
    rng = np.random.default_rng(3)
    for label, law in _wrong_laws(workload.name).items():
        if workload.name == "ring-lock":
            fake = Observation(obs.xi, obs.counts, {"mean_p_bar": law})
        else:
            pmf = np.clip(law(obs.xi, workload.n_steps), 0.0, None)  # the sharp law dips below 0
            fake = Observation(obs.xi, rng.multinomial(workload.n_particles, pmf / pmf.sum()), {})
        verdicts = workload.judge(workload, fake, workload.law)
        assert not all(v.ok for v in verdicts), (label, verdicts)


def test_check_rejects_json_that_differs_from_csv(real_run):
    workload, outdir = real_run
    path = outdir / "out.json"
    original = path.read_text()
    doc = json.loads(original)
    doc["rows"][len(doc["rows"]) // 2][1] += 1
    try:
        path.write_text(json.dumps(doc))
        assert not all(v.ok for v in workload.check(outdir))
    finally:
        path.write_text(original)


def test_laws_match_program_while_it_has_them():
    scenarios = pytest.importorskip("latticemc.scenarios")
    analytic = pytest.importorskip("latticemc.analytic")
    xi = np.arange(-315, 313)
    if hasattr(scenarios, "finite_time_slit_density"):
        assert np.allclose(checks.finite_time_law(xi, 300, MULTI_SOURCES),
                           scenarios.finite_time_slit_density(xi, 300, MULTI_SOURCES),
                           rtol=0, atol=1e-12)
    if hasattr(scenarios, "two_slit_density"):
        assert np.allclose(checks.cosine_law(xi, 300, TWO_SOURCES),
                           scenarios.two_slit_density(xi, 300, 0.5, 0.5, 2), rtol=0, atol=1e-15)
    if hasattr(analytic, "ensemble_probability"):
        assert np.array_equal(checks.flat_law(xi, 300), analytic.ensemble_probability(xi, 300))
    if hasattr(analytic, "pmf_free"):
        assert np.allclose(checks.free_pmf(xi, 300, 0.3), analytic.pmf_free(xi, 300, 0.3),
                           rtol=0, atol=1e-12)
    if hasattr(scenarios, "ring_steady_momentum"):
        for p in (-0.5, -0.33, 0.0, 0.33, 0.5, 0.95):
            assert checks.ring_target(p, 10) == scenarios.ring_steady_momentum(p, 10)


def test_tracer_survives_removed_names_and_changed_signatures():
    import latticemc.qforce as qforce

    original = qforce._pair_terms
    tracer = spans.Tracer()
    tracer.wrap("qforce.no_such_function")
    tracer.wrap("qforce.NoSuchClass.method")
    tracer.wrap("no_such_module.function")
    tracer.wrap("qforce._pair_terms", hook=lambda counts, a, result: a["renamed_argument"])
    try:
        assert qforce._pair_terms is not original
        qforce._pair_terms(TWO_SOURCES)
    finally:
        tracer.restore()
    assert qforce._pair_terms is original
    assert tracer.absent == [
        "qforce.no_such_function", "qforce.NoSuchClass.method", "no_such_module.function"]
    assert tracer.hook_errors["qforce._pair_terms"] == 1
    assert tracer.summary()["qforce._pair_terms"].calls == 1


def test_span_cost_is_positive():
    assert 0.0 < spans.span_cost(repeats=2000) < 1e-3
    assert spans.span_cost(hook=lambda counts, a, result: None, repeats=2000) > 0.0


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    # parent [0, 10] with overlapping children [1, 4] and [3, 6] (two threads)
    tracer.spans = [["p", 0.0, 10.0, None], ["c", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0]]
    summary = tracer.summary()
    assert summary["p"].self_s == pytest.approx(5.0)
    assert summary["c"].total_s == pytest.approx(6.0)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER_UNITS)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.PER_LAYER_UNITS[m["name"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
