"""Tests of the benchmark itself: oracle, tracer, and input generation.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from jobs import SMALL_MODELS, WORKLOADS, Context, build_plan, load_corpus  # noqa: E402
from tracer import BOUNDARIES, COUNTED, METRICS, Tracer, _package_modules, _resolve  # noqa: E402

CLI = run.import_cli()
CTX = Context(load_corpus(Path(CLI.__file__).parent / "fixtures"))


@pytest.fixture(scope="module")
def plans():
    return {name: build_plan(w, 3, CTX) for name, w in WORKLOADS.items()}


def _calls(jobs, tmp_path):
    return [(run.materialize(job, i, tmp_path), job) for i, job in enumerate(jobs)]


def _first(plan, prefix, count=1):
    return [job for job in plan.jobs if job.cls.startswith(prefix)][:count]


def test_every_class_passes_its_oracle(plans, tmp_path):
    small = plans["small_models"]
    jobs = [_first(small, cls)[0] for cls, _ in SMALL_MODELS.mix]
    jobs += _first(plans["high_cx"], "koszul/c4") + _first(plans["long_period"], "e-neg/d12")
    tally = run.Tally()
    for call, job in _calls(jobs, tmp_path):
        tally.record(job, run.run_job(CLI, call)[1])
    assert tally.failures == []
    assert tally.attempted == len(jobs)


def test_planted_wrong_expectation_is_counted(plans, tmp_path):
    jobs = _first(plans["small_models"], "e", 3)
    planted = replace(jobs[1], expect=replace(jobs[1].expect, e=jobs[1].expect.e + 1))
    tally = run.Tally()
    for call, job in _calls([jobs[0], planted, jobs[2]], tmp_path):
        tally.record(job, run.run_job(CLI, call)[1])
    assert tally.attempted == 3
    assert len(tally.failures) == 1 and "e_delta" in tally.failures[0]


def test_predicted_koszul_rejection_counts_as_correct(plans, tmp_path):
    job = _first(plans["small_models"], "koszul/reject")[0]
    (call, _), = _calls([job], tmp_path)
    took, outcome = run.run_job(CLI, call)
    assert outcome.code == 1
    tally = run.Tally()
    assert tally.record(job, outcome)
    assert not tally.record(replace(job, expect=replace(job.expect, reject=False)), outcome)


def _sites() -> dict:
    """Every attribute a tracer may replace, by identity."""
    out = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if callable(value):
                out[(module.__name__, attr)] = value
    boundaries = BOUNDARIES + tuple(b for _, b in COUNTED)
    for owner, attr in {(b.owner, b.attr) for b in boundaries} | {("qmult.exact.Polynomial", "__call__")}:
        cls = _resolve(owner)
        if isinstance(cls, type):
            out[(owner, attr)] = cls.__dict__[attr]
    return out


def test_traced_run_restores_every_patched_attribute(plans, tmp_path):
    before = _sites()
    calls = _calls(_first(plans["small_models"], "koszul/accept", 2) + _first(plans["small_models"], "verify"), tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert CLI.main is not before[("qmult.cli", "main")]
        assert sys.modules["qmult.koszul"].nonnegative_on_ray is not before[("qmult.koszul", "nonnegative_on_ray")]
        assert sys.modules["qmult.multiplicity"].delta_op is not before[("qmult.multiplicity", "delta_op")]
    finally:
        tracer.uninstall()
    metrics = run.traced(CLI, calls, run.Tally(), tmp_path / "spans.jsonl.gz")
    after = _sites()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert metrics["cli.main.calls"] == len(calls)
    assert metrics["fixtures.run_corpus.calls"] == 1


def test_timed_run_installs_no_wrapper(plans, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a timed run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    before = _sites()
    seen = []
    original_run_job = run.run_job

    def spy(cli, call):
        seen.append(all(v is before[k] for k, v in _sites().items()))
        return original_run_job(cli, call)

    monkeypatch.setattr(run, "run_job", spy)
    rounds = [_calls(_first(plans["small_models"], "e", 2), tmp_path)]
    samples, ok, played = run.timed(CLI, rounds, 0.0, run.Tally())
    assert (len(samples), ok, played) == (2, 2, 1)
    assert seen == [True, True]


def test_traced_counts_repeat_exactly(plans, tmp_path):
    jobs = _first(plans["long_period"], "koszul/d12", 2) + _first(plans["small_models"], "e-neg", 2)
    runs = [run.traced(CLI, _calls(jobs, tmp_path), run.Tally(), tmp_path / f"{k}.gz") for k in range(2)]
    for name, unit, _ in METRICS:
        if unit == "count":
            assert runs[0][name] == runs[1][name], name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_one_job_list(name, plans):
    workload = WORKLOADS[name]
    plan = build_plan(workload, 3, CTX)
    assert plan == plans[name]
    other = build_plan(workload, 4, CTX)
    assert other.jobs != plan.jobs
    keys = [job.key for job in plan.jobs + list(plan.warmup)]
    assert len(set(keys)) == len(keys)
    per_round = [Counter(job.cls for job in rnd) for rnd in plan.rounds + other.rounds]
    assert all(c == dict(workload.mix) for c in per_round)


def test_reflected_inputs_match_the_library(plans):
    from qmult import from_series, parse_series

    for job, probe, d in (
        (_first(plans["high_cx"], "e-neg/c6")[0], 80, 2),
        (_first(plans["long_period"], "e-neg/d24")[0], 7 * 24, 24),
    ):
        expr = _expr_of(job)
        lf = from_series(parse_series(expr), d, probe)
        assert json.loads(job.payload) == json.loads(json.dumps(lf.reflect().to_json_dict()))


def _expr_of(job) -> str:
    spec = job.expect.lam
    if spec[0] == "binomial":
        a, b, c = spec[1:]
        return f"t^{a}*(1+t)^{b}/(1-t)^{c}"
    a, k1, k2 = spec[1:]
    return f"t^{a}/((1-t^{k1})*(1-t^{k2}))"


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(METRICS)
