"""Unit tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import build_parser, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDevices:
    def test_lists_library(self):
        code, text = _run(["devices"])
        assert code == 0
        assert "ibmq_20_tokyo" in text
        assert "ibmq_16_melbourne" in text


class TestProfile:
    def test_tokyo_profile(self):
        code, text = _run(["profile", "ibmq_20_tokyo"])
        assert code == 0
        assert "connectivity strength" in text
        # Figure 3(b): qubit 0 has degree 2 and strength 7.
        lines = [l for l in text.splitlines() if l.strip().startswith("0 ")]
        assert any("7" in l for l in lines)

    def test_radius_flag(self):
        code, text = _run(["profile", "ring_8", "--radius", "1"])
        assert code == 0

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            _run(["profile", "nonexistent"])


class TestCompile:
    def test_basic_compile(self):
        code, text = _run(
            ["compile", "--nodes", "6", "--device", "ring_8",
             "--method", "ic", "--seed", "3"]
        )
        assert code == 0
        assert "depth=" in text
        assert "qaim+ic" in text

    def test_vic_gets_calibration_automatically(self):
        code, text = _run(
            ["compile", "--nodes", "6", "--device", "ibmq_16_melbourne",
             "--method", "vic", "--seed", "3"]
        )
        assert code == 0
        assert "success probability=" in text

    def test_qasm_output(self, tmp_path):
        qasm_file = tmp_path / "circuit.qasm"
        code, text = _run(
            ["compile", "--nodes", "5", "--device", "ring_8",
             "--qasm", str(qasm_file)]
        )
        assert code == 0
        content = qasm_file.read_text()
        assert content.startswith("OPENQASM 2.0;")
        from repro.circuits.qasm import loads

        loads(content)  # must parse back

    def test_draw_flag(self):
        code, text = _run(
            ["compile", "--nodes", "4", "--device", "ring_8", "--draw"]
        )
        assert code == 0
        assert "q0" in text

    def test_seed_reproducibility(self):
        def strip_timing(run):
            code, text = run
            lines = [
                line.split("compile=")[0] for line in text.splitlines()
            ]
            return code, lines

        a = _run(["compile", "--nodes", "6", "--device", "ring_8", "--seed", "9"])
        b = _run(["compile", "--nodes", "6", "--device", "ring_8", "--seed", "9"])
        assert strip_timing(a) == strip_timing(b)


class TestAutoCalibration:
    @pytest.mark.parametrize("device", ["ibmq_20_tokyo", "ibmq_16_melbourne"])
    def test_vic_compiles_against_the_auto_calibration(self, device):
        """`repro compile --method vic` compiles against the calibration
        `calibration="auto"` and a compile job draw for the same seed."""
        import json

        import repro
        from repro.service import CompileJob, execute_job

        code, text = _run(
            ["compile", "--method", "vic", "--device", device, "--seed", "5",
             "--json"]
        )
        assert code == 0
        cli = json.loads(text)["result"]["target_fingerprint"]
        problem = repro.MaxCutProblem(3, [(0, 1), (1, 2)])
        api = repro.compile(
            problem, target=device, method="vic", calibration="auto", seed=5
        )
        job = execute_job(
            CompileJob(
                program=problem.to_program([0.7], [0.35]),
                device=device,
                method="vic",
                seed=5,
                calibration="auto",
            )
        )
        assert cli == api.compiled.target_fingerprint
        assert cli == job.metrics["target_fingerprint"]


class TestExperiment:
    def test_sec6(self):
        code, text = _run(["experiment", "sec6", "--instances", "3"])
        assert code == 0
        assert "sec6_planner" in text
        assert "NAIVE" in text


class TestAnalyze:
    def test_analyze_output(self):
        code, text = _run(
            ["analyze", "--nodes", "8", "--device", "ring_8",
             "--method", "ic", "--seed", "2"]
        )
        assert code == 0
        assert "routing" in text
        assert "mean concurrency" in text
        assert "hottest couplings" in text

    def test_analyze_vic_gets_calibration(self):
        code, text = _run(
            ["analyze", "--nodes", "8", "--device", "ibmq_16_melbourne",
             "--method", "vic", "--seed", "2"]
        )
        assert code == 0
        assert "qaim+vic" in text


class TestArg:
    def test_arg_command(self):
        code, text = _run(
            ["arg", "--nodes", "6", "--shots", "512",
             "--trajectories", "4", "--seed", "1"]
        )
        assert code == 0
        assert "ARG" in text
        assert "QAIM" in text and "VIC" in text


class TestCompileJson:
    def test_json_document_shape(self):
        import json

        code, text = _run(["compile", "--nodes", "6", "--json"])
        assert code == 0
        document = json.loads(text)
        assert document["metrics"]["depth"] > 0
        from repro.compiler.serialize import FORMAT_VERSION

        assert document["result"]["format_version"] == FORMAT_VERSION
        assert document["result"]["qasm"].startswith("OPENQASM")

    def test_json_result_deserialises(self):
        import json

        from repro.compiler.serialize import from_json

        code, text = _run(["compile", "--nodes", "6", "--json"])
        assert code == 0
        document = json.loads(text)
        compiled = from_json(json.dumps(document["result"]))
        assert compiled.depth() == document["metrics"]["depth"]

    def test_unknown_device_exits_cleanly(self, capsys):
        code, _ = _run(["compile", "--device", "nonexistent"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown device" in captured.err
        assert "Traceback" not in captured.err


def _write_jobs(path, count=4):
    import json

    lines = ["# test jobs"]
    for i in range(count):
        lines.append(
            json.dumps(
                {
                    "id": f"job-{i}",
                    "problem": {
                        "family": "er",
                        "nodes": 8,
                        "param": 0.5,
                        "seed": i,
                    },
                    "device": "ibmq_20_tokyo",
                    "method": "ic" if i % 2 else "ip",
                    "seed": 0,
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")


class TestBatch:
    def test_batch_runs_and_reports(self, tmp_path):
        import json

        jobs_file = tmp_path / "jobs.jsonl"
        out_file = tmp_path / "results.jsonl"
        _write_jobs(jobs_file)
        code, text = _run(
            ["batch", str(jobs_file), "-o", str(out_file)]
        )
        assert code == 0
        assert "cache hit rate" in text
        assert "latency p95" in text
        records = [
            json.loads(line)
            for line in out_file.read_text().splitlines()
        ]
        assert len(records) == 4
        assert all(r["ok"] for r in records)
        assert all(r["metrics"]["depth"] > 0 for r in records)

    def test_batch_disk_cache_warm_rerun(self, tmp_path):
        import json

        jobs_file = tmp_path / "jobs.jsonl"
        cache_dir = tmp_path / "cache"
        _write_jobs(jobs_file)
        code, _ = _run(
            ["batch", str(jobs_file), "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        out_file = tmp_path / "warm.jsonl"
        code, text = _run(
            ["batch", str(jobs_file), "--cache-dir", str(cache_dir),
             "-o", str(out_file)]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out_file.read_text().splitlines()
        ]
        assert all(r["cached"] for r in records)
        assert "100.0%" in text

    def test_batch_failed_job_sets_exit_code(self, tmp_path):
        import json

        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            json.dumps(
                {
                    "program": {"num_qubits": 3, "edges": [[0, 1]]},
                    "device": "no_such_device",
                }
            )
            + "\n"
        )
        code, text = _run(["batch", str(jobs_file)])
        assert code == 1
        assert '"ok": false' in text

    def test_batch_missing_file(self, capsys):
        code, _ = _run(["batch", "/nonexistent/jobs.jsonl"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_batch_empty_file(self, tmp_path, capsys):
        jobs_file = tmp_path / "empty.jsonl"
        jobs_file.write_text("# nothing here\n")
        code, _ = _run(["batch", str(jobs_file)])
        assert code == 2
        assert "no jobs" in capsys.readouterr().err

    def test_batch_malformed_job(self, tmp_path, capsys):
        jobs_file = tmp_path / "bad.jsonl"
        jobs_file.write_text('{"device": "ring_8"}\n')
        code, _ = _run(["batch", str(jobs_file)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_example_job_file_loads(self):
        import pathlib

        from repro.service import load_jobs_jsonl

        example = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples"
            / "batch_jobs.jsonl"
        )
        jobs = load_jobs_jsonl(example.read_text().splitlines())
        assert len(jobs) == 10


class TestCacheCommand:
    def _populate(self, tmp_path):
        jobs_file = tmp_path / "jobs.jsonl"
        _write_jobs(jobs_file, count=2)
        cache_dir = tmp_path / "cache"
        code, _ = _run(
            ["batch", str(jobs_file), "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        return cache_dir

    def test_stats(self, tmp_path):
        cache_dir = self._populate(tmp_path)
        code, text = _run(["cache", "stats", "--dir", str(cache_dir)])
        assert code == 0
        assert "entries" in text
        assert " 2" in text

    def test_prune_removes_stale_only(self, tmp_path):
        import json

        from repro.store import SQLiteDiskTier

        cache_dir = self._populate(tmp_path)
        tier = SQLiteDiskTier(cache_dir)
        tier.put_text("deadbeef", json.dumps({"format_version": 0}))
        code, text = _run(["cache", "prune", "--dir", str(cache_dir)])
        assert code == 0
        assert "pruned 1" in text
        assert "(2 remain)" in text
        assert not tier.contains("deadbeef")

    def test_clear(self, tmp_path):
        """clear empties the database and deletes the files an earlier
        one-file-per-entry cache left in the directory."""
        cache_dir = self._populate(tmp_path)
        (cache_dir / "old.json").write_text("{}")
        (cache_dir / "3f").mkdir()
        (cache_dir / "3f" / "old.json").write_text("{}")
        code, text = _run(["cache", "clear", "--dir", str(cache_dir)])
        assert code == 0
        assert "cleared 2" in text
        assert list(cache_dir.glob("**/*.json")) == []
        code, text = _run(["cache", "stats", "--dir", str(cache_dir)])
        assert re.search(r"entries +0\n", text)

    def test_batch_closes_its_database(self, tmp_path):
        """A `repro batch` run closes its cache's connection: with the
        cyclic collector off, so nothing frees a dropped connection,
        another connection takes an exclusive lock at once."""
        import gc
        import sqlite3

        gc.disable()
        try:
            cache_dir = self._populate(tmp_path)
            holder = sqlite3.connect(
                cache_dir / "cache.sqlite", isolation_level=None, timeout=0
            )
            try:
                holder.execute("PRAGMA locking_mode=EXCLUSIVE")
                holder.execute("BEGIN EXCLUSIVE")
                holder.execute("ROLLBACK")
            finally:
                holder.close()
        finally:
            gc.enable()

    def test_locked_database_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        import sqlite3

        import repro.store.disk as disk

        monkeypatch.setattr(disk, "BUSY_TIMEOUT_S", 0.05)
        cache_dir = self._populate(tmp_path)
        holder = sqlite3.connect(cache_dir / "cache.sqlite", isolation_level=None)
        holder.execute("PRAGMA locking_mode=EXCLUSIVE")
        holder.execute("BEGIN EXCLUSIVE")
        try:
            code, _ = _run(["cache", "stats", "--dir", str(cache_dir)])
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cache directory")
