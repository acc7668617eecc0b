"""Tests for the repro-fbf command-line interface."""

import contextlib

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def string_files(tmp_path):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    left.write_text("123456789\n555443333\n999887777\n")
    right.write_text("123456780\n555443333\n111222333\n")
    return left, right


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_defaults(self, string_files):
        left, right = string_files
        args = build_parser().parse_args(["match", str(left), str(right)])
        assert args.method == "FPDL" and args.k == 1

    def test_rejects_unknown_method(self, string_files):
        left, right = string_files
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["match", str(left), str(right), "--method", "BOGUS"]
            )


class TestMatchCommand:
    def test_output_pairs(self, string_files, capsys):
        left, right = string_files
        assert main(["match", str(left), str(right), "--k", "1"]) == 0
        captured = capsys.readouterr()
        assert "123456789\t123456780" in captured.out
        assert "555443333\t555443333" in captured.out
        assert "2 matches" in captured.err

    def test_quiet_suppresses_pairs(self, string_files, capsys):
        left, right = string_files
        main(["match", str(left), str(right), "--quiet"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "matches" in captured.err

    def test_method_selection(self, string_files, capsys):
        left, right = string_files
        main(["match", str(left), str(right), "--method", "DL"])
        assert "DL" in capsys.readouterr().err

    def test_plan_lists_the_kept_generators(self, string_files, capsys):
        left, right = string_files
        assert main(["match", str(left), str(right), "--plan"]) == 0
        costs = [
            line.split()[2]
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("# cost")
        ]
        assert sorted(costs) == ["all-pairs", "blocking", "pass-join"]

    def test_kernels_axis_prints_the_same_pairs(self, string_files, capsys):
        left, right = string_files
        outs = set()
        for backend in ("vectorized", "hybrid"):
            for kernels in ("auto", "numpy"):
                assert main(
                    ["match", str(left), str(right), "--backend", backend,
                     "--workers", "2", "--kernels", kernels]
                ) == 0
                outs.add(capsys.readouterr().out)
        assert len(outs) == 1 and "123456789\t123456780" in outs.pop()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["match", str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt")])

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        with pytest.raises(SystemExit, match="no strings"):
            main(["match", str(empty), str(empty)])


class TestDedupeCommand:
    def test_clusters(self, tmp_path, capsys):
        roster = tmp_path / "roster.txt"
        roster.write_text("SMITH\nSMYTH\nJONES\nGARCIA\n")
        assert main(["dedupe", str(roster), "--k", "1"]) == 0
        captured = capsys.readouterr()
        assert "SMITH | SMYTH" in captured.out
        assert "1 duplicate clusters" in captured.err

    def test_no_duplicates(self, tmp_path, capsys):
        roster = tmp_path / "roster.txt"
        roster.write_text("AAAA\nZZZZZZ\n")
        main(["dedupe", str(roster)])
        captured = capsys.readouterr()
        assert "0 duplicate clusters" in captured.err


class TestJoinStreamCommand:
    @pytest.fixture
    def stream_files(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("SMITH\nSMYTH\nJONES\nGARCIA\nMILLER\nSMITH\n" * 20)
        roster = tmp_path / "roster.txt"
        roster.write_text("SMITH\nJONES\nWILSON\n")
        return big, roster

    def test_in_memory_run_prints_matches(self, stream_files, capsys):
        big, roster = stream_files
        assert main(
            ["join-stream", str(big), str(roster), "--k", "1",
             "--chunk-rows", "40"]
        ) == 0
        captured = capsys.readouterr()
        assert "SMITH" in captured.out
        assert "chunks" in captured.err
        assert "complete" in captured.err

    def test_spill_checkpoint_pause_resume(
        self, stream_files, tmp_path, capsys
    ):
        big, roster = stream_files
        spill = tmp_path / "m.jsonl"
        ck = tmp_path / "ck.json"
        assert main(
            ["join-stream", str(big), str(roster), "--k", "1",
             "--chunk-rows", "40", "--spill", str(spill),
             "--checkpoint", str(ck), "--max-chunks", "1", "--quiet"]
        ) == 0
        assert "paused" in capsys.readouterr().err
        assert ck.exists()
        assert main(
            ["join-stream", str(big), str(roster), "--k", "1",
             "--chunk-rows", "40", "--spill", str(spill),
             "--checkpoint", str(ck), "--resume", "--quiet"]
        ) == 0
        err = capsys.readouterr().err
        assert "resumed after chunk 0" in err
        assert "complete" in err
        assert not ck.exists()
        assert spill.stat().st_size > 0

    def test_memory_budget_flag(self, stream_files, capsys):
        big, roster = stream_files
        assert main(
            ["join-stream", str(big), str(roster), "--memory-budget", "8",
             "--quiet"]
        ) == 0
        assert "1 chunks" in capsys.readouterr().err

    def test_stats_funnel_conserved_output(self, stream_files, capsys):
        big, roster = stream_files
        assert main(
            ["join-stream", str(big), str(roster), "--k", "1",
             "--chunk-rows", "40", "--stats", "--quiet"]
        ) == 0
        err = capsys.readouterr().err
        assert "conserved: yes" in err

    def test_kernels_axis_prints_the_same_matches(
        self, stream_files, capsys
    ):
        big, roster = stream_files
        outs = {}
        for backend in ("vectorized", "hybrid"):
            for kernels in ("auto", "numpy"):
                assert main(
                    ["join-stream", str(big), str(roster), "--k", "1",
                     "--chunk-rows", "40", "--backend", backend,
                     "--workers", "2", "--kernels", kernels]
                ) == 0
                outs[backend, kernels] = capsys.readouterr().out
        assert "SMITH" in outs["vectorized", "auto"]
        assert len(set(outs.values())) == 1, outs

    def test_native_backend_names_its_replacement(
        self, stream_files, capsys
    ):
        big, roster = stream_files
        with pytest.raises(SystemExit):
            main(["join-stream", str(big), str(roster), "--backend", "native"])
        err = capsys.readouterr().err
        assert "'native' was removed" in err
        assert "vectorized" in err and "kernels=" in err

    def test_checkpoint_without_spill_fails(self, stream_files, tmp_path):
        big, roster = stream_files
        with pytest.raises(SystemExit, match="spill"):
            main(
                ["join-stream", str(big), str(roster),
                 "--checkpoint", str(tmp_path / "ck.json")]
            )

    def test_gzip_inputs(self, tmp_path, capsys):
        import gzip

        big = tmp_path / "big.txt.gz"
        with gzip.open(big, "wt") as fh:
            fh.write("SMITH\nJONES\n" * 10)
        roster = tmp_path / "roster.txt.gz"
        with gzip.open(roster, "wt") as fh:
            fh.write("SMITH\n")
        assert main(
            ["join-stream", str(big), str(roster), "--quiet"]
        ) == 0
        assert "matches" in capsys.readouterr().err


class TestMatchGzipInput:
    def test_match_reads_gzip_files(self, tmp_path, capsys):
        import gzip

        left = tmp_path / "left.txt.gz"
        with gzip.open(left, "wt") as fh:
            fh.write("123456789\n555443333\n")
        right = tmp_path / "right.txt"
        right.write_text("123456780\n555443333\n")
        assert main(["match", str(left), str(right), "--k", "1"]) == 0
        assert "2 matches" in capsys.readouterr().err


class TestReportCommand:
    def test_writes_report(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table01_ssn_k1.txt").write_text("table body")
        out = tmp_path / "REPORT.md"
        assert main(
            ["report", "--results", str(results), "--output", str(out)]
        ) == 0
        assert "table body" in out.read_text()

    def test_prints_without_output(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        main(["report", "--results", str(results)])
        assert "Reproduction report" in capsys.readouterr().out


class TestExperimentCommand:
    def test_prints_table(self, capsys):
        assert main(["experiment", "--family", "SSN", "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "SSN experiment" in out
        assert "FPDL" in out and "Gen" in out

    def test_length_filter_set(self, capsys):
        main(["experiment", "--family", "LN", "--n", "60", "--length-filter"])
        out = capsys.readouterr().out
        assert "LFPDL" in out


class TestStatsFlags:
    def test_match_stats_prints_funnel(self, string_files, capsys):
        left, right = string_files
        assert main(["match", str(left), str(right), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "funnel: FPDL" in err
        assert "conserved: yes" in err
        assert "fbf" in err

    def test_match_stats_json(self, string_files, tmp_path, capsys):
        import json

        left, right = string_files
        out = tmp_path / "stats.json"
        assert main(
            ["match", str(left), str(right), "--stats-json", str(out)]
        ) == 0
        d = json.loads(out.read_text())
        assert d["conserved"] is True
        assert d["pairs_considered"] == 9
        assert d["meta"]["method"] == "FPDL"
        # No funnel on stderr unless --stats was also given.
        assert "funnel:" not in capsys.readouterr().err

    def test_no_stats_flag_no_funnel(self, string_files, capsys):
        left, right = string_files
        main(["match", str(left), str(right)])
        assert "funnel:" not in capsys.readouterr().err

    def test_dedupe_stats(self, tmp_path, capsys):
        roster = tmp_path / "roster.txt"
        roster.write_text("SMITH\nSMYTH\nJONES\n")
        assert main(["dedupe", str(roster), "--stats"]) == 0
        assert "conserved: yes" in capsys.readouterr().err

    def test_experiment_stats_json_has_per_method_children(
        self, tmp_path, capsys
    ):
        import json

        out = tmp_path / "exp.json"
        assert main(
            [
                "experiment", "--family", "SSN", "--n", "40",
                "--stats-json", str(out),
            ]
        ) == 0
        d = json.loads(out.read_text())
        children = d["children"]
        assert set(children) >= {"DL", "FPDL", "FBF"}
        assert all(c["conserved"] for c in children.values())
        assert children["FPDL"]["stages"][0]["name"] == "fbf"


class TestLoggingFlags:
    def test_verbose_emits_info_logs(self, string_files, capsys):
        left, right = string_files
        main(["-v", "match", str(left), str(right), "--quiet"])
        assert "INFO repro.cli" in capsys.readouterr().err

    def test_default_hides_info_logs(self, string_files, capsys):
        left, right = string_files
        main(["match", str(left), str(right), "--quiet"])
        assert "INFO repro" not in capsys.readouterr().err


@pytest.fixture
def roster_file(tmp_path):
    roster = tmp_path / "roster.txt"
    roster.write_text("SMITH\nSMYTH\nJONES\nJONSE\nBROWN\n")
    return roster


class TestQueryCommand:
    def test_tsv_output(self, roster_file, capsys):
        assert main(["query", "--data", str(roster_file), "SMITH"]) == 0
        captured = capsys.readouterr()
        assert "SMITH\t0\tSMITH" in captured.out
        assert "SMITH\t1\tSMYTH" in captured.out
        assert "2 matches for 1 queries" in captured.err

    def test_json_output(self, roster_file, capsys):
        import json

        main(["query", "--data", str(roster_file), "--json", "SMITH", "NOPE"])
        lines = capsys.readouterr().out.splitlines()
        payloads = [json.loads(line) for line in lines]
        assert payloads[0]["ids"] == [0, 1]
        assert payloads[1]["ids"] == []

    def test_method_and_k_flags(self, roster_file, capsys):
        main(
            ["query", "--data", str(roster_file), "--k", "0",
             "--method", "myers", "SMITH"]
        )
        out = capsys.readouterr().out
        assert out.splitlines() == ["SMITH\t0\tSMITH"]

    def test_requires_a_source(self, roster_file):
        with pytest.raises(SystemExit):
            main(["query", "SMITH"])
        with pytest.raises(SystemExit):
            main(
                ["query", "--data", str(roster_file),
                 "--snapshot", "x.npz", "SMITH"]
            )

    def test_stats_funnel_conserved(self, roster_file, capsys):
        assert main(
            ["query", "--data", str(roster_file), "--stats", "SMITH", "JONES"]
        ) == 0
        err = capsys.readouterr().err
        assert "conserved: yes" in err
        assert "pass-join" in err


class TestServeCommand:
    def run_serve(self, monkeypatch, capsys, argv, requests):
        import io
        import json

        lines = [json.dumps(r) for r in requests]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(lines) + "\n")
        )
        assert main(argv) == 0
        captured = capsys.readouterr()
        responses = [
            json.loads(line) for line in captured.out.splitlines()
        ]
        return responses, captured.err

    def test_round_trip(self, roster_file, monkeypatch, capsys):
        responses, err = self.run_serve(
            monkeypatch,
            capsys,
            ["serve", "--data", str(roster_file)],
            [
                {"op": "query", "value": "SMITH"},
                {"op": "add", "value": "SMITT"},
                {"op": "query", "value": "SMITH"},
                {"op": "stats"},
            ],
        )
        assert responses[0]["ids"] == [0, 1]
        assert responses[2]["ids"] == [0, 1, 5]
        assert responses[3]["stats"]["size"] == 6
        assert "served 4 requests" in err

    def test_snapshot_then_warm_start(
        self, roster_file, tmp_path, monkeypatch, capsys
    ):
        snap = tmp_path / "warm.npz"
        self.run_serve(
            monkeypatch,
            capsys,
            ["serve", "--data", str(roster_file)],
            [
                {"op": "add", "value": "SMITT"},
                {"op": "snapshot", "path": str(snap)},
            ],
        )
        responses, _ = self.run_serve(
            monkeypatch,
            capsys,
            ["serve", "--snapshot", str(snap)],
            [{"op": "query", "value": "SMITH"}],
        )
        assert responses[0]["ids"] == [0, 1, 5]

    def test_serve_stats_json_conserved(
        self, roster_file, tmp_path, monkeypatch, capsys
    ):
        import json

        out = tmp_path / "serve.json"
        self.run_serve(
            monkeypatch,
            capsys,
            ["serve", "--data", str(roster_file), "--stats-json", str(out)],
            [
                {"op": "query_batch", "values": ["SMITH", "JONES"]},
                {"op": "query", "value": "SMITH"},
            ],
        )
        d = json.loads(out.read_text())
        assert d["conserved"] is True
        assert d["counters"]["cache_hits"] == 1


class TestMetricsFlags:
    def test_match_metrics_json_bridges_funnel(
        self, string_files, tmp_path, capsys
    ):
        import json

        left, right = string_files
        out = tmp_path / "m.json"
        assert main(
            ["match", str(left), str(right), "--metrics-json", str(out)]
        ) == 0
        snap = json.loads(out.read_text())
        series = snap["metrics"]
        assert series["repro_join_pairs_considered_total"]["value"] > 0
        stage_keys = [k for k in series if "stage_pairs_total" in k]
        assert stage_keys  # labelled per-stage counters present

    def test_query_metrics_json_uses_service_registry(
        self, roster_file, tmp_path, capsys
    ):
        import json

        out = tmp_path / "m.json"
        assert main(
            ["query", "--data", str(roster_file), "SMITH",
             "--metrics-json", str(out)]
        ) == 0
        series = json.loads(out.read_text())["metrics"]
        assert series["serve_queries_total"]["value"] == 1
        assert series["index_size"]["value"] == 5

    def test_serve_metrics_json(
        self, roster_file, tmp_path, monkeypatch, capsys
    ):
        import io
        import json

        out = tmp_path / "m.json"
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"op": "query", "value": "SMITH"}\n'),
        )
        assert main(
            ["serve", "--data", str(roster_file),
             "--metrics-json", str(out)]
        ) == 0
        capsys.readouterr()
        series = json.loads(out.read_text())["metrics"]
        assert series["serve_queries_total"]["value"] == 1


class TestServeMetricsPort:
    @contextlib.contextmanager
    def _serve_with_listener(self, roster_file, requests):
        """Run `serve --metrics-port 0` as a subprocess, feed it
        requests (synchronising on each response line), and yield the
        listener's bound port while the server is still up."""
        import json
        import subprocess
        import sys

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--data", str(roster_file), "--metrics-port", "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = None
            for line in proc.stderr:
                if "metrics listening" in line:
                    port = int(line.rsplit(":", 1)[1].split("/")[0])
                    break
            assert port is not None, "no announce line on stderr"
            for request in requests:
                proc.stdin.write(json.dumps(request) + "\n")
                proc.stdin.flush()
                response = json.loads(proc.stdout.readline())
                assert response["ok"], response
            yield port
        finally:
            try:
                proc.stdin.write('{"op": "shutdown"}\n')
                proc.stdin.flush()
                proc.stdin.close()
            except (BrokenPipeError, ValueError, OSError):
                pass
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
        assert proc.returncode == 0

    def test_scrape_via_metrics_subcommand(self, roster_file, capsys):
        import json

        with self._serve_with_listener(
            roster_file, [{"op": "query", "value": "SMITH"}]
        ) as port:
            capsys.readouterr()
            assert main(["metrics", str(port)]) == 0
            text = capsys.readouterr().out
            assert "# TYPE serve_queries_total counter" in text
            assert "serve_queries_total 1" in text
            assert main(["metrics", str(port), "--json"]) == 0
            snap = json.loads(capsys.readouterr().out)
            assert snap["metrics"]["serve_queries_total"]["value"] == 1
            assert main(["metrics", str(port), "--events"]) == 0
            assert "events" in json.loads(capsys.readouterr().out)

    def test_metrics_subcommand_connection_refused(self, capsys):
        # Port 1 is never bound in the test environment.
        with pytest.raises(SystemExit, match="cannot scrape"):
            main(["metrics", "1", "--timeout", "0.5"])
