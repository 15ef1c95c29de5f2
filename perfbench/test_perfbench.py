"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracing
import workloads

if not run.use_sources():
    raise RuntimeError("run from a checkout that has src/gsworkbench")


@pytest.fixture(scope="module")
def gsw():
    return run.import_fresh()


def traced_counts(workload: str, hash_seed: int) -> dict:
    """Count metrics of one traced run of the benchmark, in a fresh process."""
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", "1"]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(argv, cwd=run.ROOT, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] in ("count", "B") or name.endswith("searches_per_word")
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_across_runs(name):
    first = traced_counts(name, 1)
    assert first == traced_counts(name, 2)
    assert first["engine.enumerate.calls"] > 0


def test_searches_per_word_is_counted_inside_certify(gsw, tmp_path):
    jobs = workloads.index_certify(gsw, str(tmp_path), 1)
    tracer = tracing.Tracer()
    with tracer.installed(gsw):
        p = run.run_pass(jobs)
    (values, unsteady) = run.per_layer([(p, tracer.layers, tracer.searches_in_certify)], [p])
    assert unsteady == []
    words = tracer.layers["verifier.certify_index_bound"].counts["checked_words"]
    assert tracer.searches_in_certify == tracer.layers["engine.word_index"].calls
    assert values["verifier.certify_index_bound.searches_per_word"] == (
        tracer.searches_in_certify / words
    )


def test_wrappers_patch_every_binding_and_restore_them(gsw):
    modules = [gsw] + [getattr(gsw, m) for m in tracing.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(gsw):
            # bindings made by from-imports, and the package's re-exports
            for mod, attr in [
                (gsw.verifier, "word_index"),
                (gsw.fileformat, "validate"),
                (gsw.constructions, "validate"),
                (gsw.engine, "mode_predicate"),
                (gsw, "enumerate_grammar"),
            ]:
                assert hasattr(getattr(mod, attr), "perfbench_layer"), (mod, attr)
            raise RuntimeError("leave the block early")
    for mod, old in zip(modules, before):
        assert not [a for a, v in vars(mod).items() if hasattr(v, "perfbench_layer")]
        for attr, value in old.items():
            assert getattr(mod, attr) is value, (mod.__name__, attr)


def test_self_time_is_span_minus_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()  # outer 0..5, inner 1..2 and 3..4
    assert tracer.layers["outer"].total_s == 5.0
    assert tracer.layers["outer"].self_s == 3.0
    assert tracer.layers["inner"].calls == 2
    assert tracer.layers["inner"].self_s == 2.0


def test_reentrant_calls_fold_into_one_span():
    tracer = tracing.Tracer()

    def countdown(n):
        return n if n == 0 else wrapped(n - 1)

    wrapped = tracer.wrap("layer", countdown)
    wrapped(5)
    assert tracer.layers["layer"].calls == 1


def test_cf_oracle_agrees_with_closed_form(gsw):
    M, V = gsw.model, gsw.verifier
    S, a, b = M.nonterminal("S"), M.terminal("a"), M.terminal("b")
    rules = [M.Rule(S, (a, S, b)), M.Rule(S, (a, b))]
    assert workloads.cf_words(rules, S, 12) == set(V.expand(V.an_bn(), 12).words)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_known_defect_answer_is_accepted_and_counted_apart():
    name = "cd-enumerate"
    (job_name, _), = workloads.KNOWN_DEFECTS[name].items()
    job = workloads.Job(job_name, None, None, lambda: "the oracle's answer\n")
    right = workloads.digest("the oracle's answer\n")
    seed_answer = workloads.defect_digests(name)[job_name]
    passes = [run.Pass(0.0, [0.0], [a]) for a in (right, seed_answer, "raised X")]
    checked = run.check(name, [job], passes)
    assert (checked.attempted, checked.failed) == (3, 1)
    assert checked.defects == {job_name: 1}
    assert checked.failures == {job_name: "raised X"}
