"""Tests for the OptimizeJob service workload and the `repro optimize`
CLI verb."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.compiler.serialize import FORMAT_VERSION
from repro.qaoa.frontend import problem_from_spec
from repro.qaoa.ising import IsingProblem
from repro.service import (
    OptimizeJob,
    ResultCache,
    execute_optimize_job,
    load_optimize_jobs_jsonl,
    optimize_job_from_dict,
    run_batch,
)

# MIS on a 5-ring as a QUBO: reward each selected vertex, penalise
# selected neighbours.  Optimum = independence number = 2.
MIS_RING5 = [
    [1, -1, 0, 0, -1],
    [-1, 1, -1, 0, 0],
    [0, -1, 1, -1, 0],
    [0, 0, -1, 1, -1],
    [-1, 0, 0, -1, 1],
]


def _mis_job(**overrides):
    problem = problem_from_spec({"qubo": {"matrix": MIS_RING5}})
    knobs = {
        "p": 1,
        "optimizer": "cobyla",
        "maxiter": 100,
        "restarts": 6,
        "opt_seed": 3,
        "job_id": "mis-ring5",
    }
    knobs.update(overrides)
    return OptimizeJob(problem=problem, **knobs)


class TestContentHash:
    def test_hash_stable_under_quadratic_insertion_order(self):
        quad = {(0, 1): 0.5, (1, 2): -0.25, (0, 2): 1.0}
        fwd = IsingProblem(3, quad)
        rev = IsingProblem(3, dict(reversed(list(quad.items()))))
        assert (
            OptimizeJob(problem=fwd).content_hash()
            == OptimizeJob(problem=rev).content_hash()
        )

    def test_hash_covers_every_knob(self):
        base = _mis_job()
        assert base.content_hash() == _mis_job().content_hash()
        for override in (
            {"p": 2},
            {"optimizer": "nelder-mead"},
            {"maxiter": 99},
            {"restarts": 5},
            {"opt_seed": 4},
        ):
            assert base.content_hash() != _mis_job(**override).content_hash()

    def test_job_id_excluded_from_hash(self):
        assert (
            _mis_job(job_id="a").content_hash()
            == _mis_job(job_id="b").content_hash()
        )

    def test_device_free_proxies(self):
        job = _mis_job()
        assert job.device == "statevector"
        assert job.method == "cobyla"
        assert job.packing_limit is None
        assert job.seed == 3
        assert job.num_qubits == 5


class TestExecute:
    def test_mis_ring5_reaches_good_ratio(self):
        result = execute_optimize_job(_mis_job())
        assert result.ok
        m = result.metrics
        assert m["optimum"] == pytest.approx(2.0)
        assert m["approximation_ratio"] > 0.5
        assert m["evaluations"] > 6
        assert len(m["gammas"]) == 1 and len(m["betas"]) == 1
        assert m["problem_fingerprint"] != m["diagonal_fingerprint"]
        stages = {t["name"] for t in m["optimize_trace"]}
        assert stages == {"population", "search"}

    def test_deterministic_under_seed(self):
        a = execute_optimize_job(_mis_job())
        b = execute_optimize_job(_mis_job())
        assert a.metrics["expectation"] == b.metrics["expectation"]
        assert a.metrics["gammas"] == b.metrics["gammas"]

    def test_unhashable_job_fails_not_raises(self):
        job = _mis_job()
        job.problem = object()  # set after __post_init__
        result = execute_optimize_job(job)
        assert not result.ok
        assert result.error_kind == "exception"
        assert result.key == ""

    def test_non_problem_rejected_where_the_job_is_built(self):
        """The constructor refuses a non-Problem, so a JSONL loader names
        the bad line instead of the batch failing the job later."""
        with pytest.raises(ValueError, match="Problem"):
            run_batch([_mis_job(), OptimizeJob(problem=object())])

    def test_invalid_optimizer_is_invalid_not_exception(self):
        result = execute_optimize_job(_mis_job(optimizer="lbfgs"))
        assert not result.ok
        assert result.error_kind == "invalid"
        assert "lbfgs" in result.error


class TestBatchAndCache:
    def test_cold_then_warm_round_trip(self, tmp_path):
        jobs = [_mis_job()]
        cache = ResultCache(
            directory=str(tmp_path), expected_version=FORMAT_VERSION
        )
        cold = run_batch(jobs, cache=cache)
        assert not cold.failed and not cold.results[0].cached
        warm_cache = ResultCache(
            directory=str(tmp_path), expected_version=FORMAT_VERSION
        )
        warm = run_batch(jobs, cache=warm_cache)
        assert warm.results[0].cached
        assert (
            warm.results[0].metrics["expectation"]
            == cold.results[0].metrics["expectation"]
        )
        assert warm.summary()["cache_hit_rate"] > 0.0

    def test_optimize_stage_summary(self):
        report = run_batch([_mis_job()])
        stages = report.stage_summary("optimize")
        assert set(stages) == {"population", "search"}
        for summary in stages.values():
            assert summary["count"] == 1


class TestJsonl:
    def test_job_from_dict_forms(self):
        job = optimize_job_from_dict(
            {
                "id": "q",
                "qubo": {"matrix": [[1, -1], [-1, 1]]},
                "optimize": {"p": 2, "optimizer": "nelder-mead", "seed": 9},
            }
        )
        assert job.job_id == "q"
        assert job.p == 2 and job.optimizer == "nelder-mead"
        assert job.opt_seed == 9

    def test_job_from_generated_family(self):
        job = optimize_job_from_dict(
            {
                "problem": {
                    "family": "qubo",
                    "nodes": 6,
                    "param": 0.5,
                    "seed": 1,
                }
            }
        )
        assert isinstance(job.problem, IsingProblem)
        assert job.num_qubits == 6

    def test_generated_family_is_reproducible(self):
        spec = {"problem": {"family": "qubo", "nodes": 6, "param": 0.5}}
        a = optimize_job_from_dict(dict(spec))
        b = optimize_job_from_dict(dict(spec))
        assert a.content_hash() == b.content_hash()

    def test_load_jsonl_skips_comments_and_names_bad_lines(self):
        lines = [
            "# comment",
            "",
            json.dumps({"qubo": {"matrix": [[1]]}}),
        ]
        assert len(load_optimize_jobs_jsonl(lines)) == 1
        with pytest.raises(ValueError, match="line 1"):
            load_optimize_jobs_jsonl(['{"optimize": {}}'])

    def test_rejects_non_object_knobs(self):
        with pytest.raises(ValueError, match="'optimize' must be an object"):
            optimize_job_from_dict(
                {"qubo": {"matrix": [[1]]}, "optimize": [1]}
            )


class TestCli:
    def test_synthetic_qubo(self):
        out = io.StringIO()
        code = main(
            [
                "optimize", "--family", "qubo", "--nodes", "6",
                "--restarts", "4", "--maxiter", "50", "--no-cache",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "qubo-6" in text
        assert "population" in text and "search" in text

    def test_jsonl_cold_then_warm(self, tmp_path):
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            json.dumps(
                {
                    "id": "mis-ring5",
                    "qubo": {"matrix": MIS_RING5},
                    "optimize": {"maxiter": 60, "restarts": 4, "seed": 3},
                }
            )
            + "\n"
        )
        cache_dir = str(tmp_path / "cache")
        cold_out, warm_out = io.StringIO(), io.StringIO()
        assert (
            main(
                ["optimize", str(jobs_file), "--cache-dir", cache_dir],
                out=cold_out,
            )
            == 0
        )
        assert (
            main(
                ["optimize", str(jobs_file), "--cache-dir", cache_dir],
                out=warm_out,
            )
            == 0
        )
        assert "cached" not in cold_out.getvalue()
        assert "cached" in warm_out.getvalue()

    def test_json_document(self):
        out = io.StringIO()
        code = main(
            [
                "optimize", "--family", "qubo", "--nodes", "5",
                "--restarts", "3", "--maxiter", "40", "--no-cache", "--json",
            ],
            out=out,
        )
        assert code == 0
        document = json.loads(out.getvalue())
        (entry,) = document["results"]
        assert entry["ok"] and entry["num_qubits"] == 5
        assert np.isfinite(entry["expectation"])

    def test_missing_file_exits_2(self, capsys):
        assert main(["optimize", "/nonexistent/jobs.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err
