"""Tests for the batch/cache CLI surface and compare exit codes."""

import json

import pytest

from repro.cli import main
from repro.verify.equiv import EquivResult

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


class TestBatch:
    def test_names_jsonl_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["batch", "rd53", "xor5", "majority",
                     "--jobs", "2", "--no-cache",
                     "--out", str(out), "--metrics-out", str(metrics)])
        assert code == 0
        rows = [json.loads(line)
                for line in out.read_text().splitlines()]
        assert [r["job_id"] for r in rows] == ["rd53", "xor5",
                                               "majority"]
        for row in rows:
            assert row["status"] == "ok"
            assert row["result"]["lut_count"] > 0
            assert row["result"]["verified"] is True
            assert "blif" not in row["result"]  # needs --include-blif
        doc = json.loads(metrics.read_text())
        assert doc["command"] == "batch"
        assert doc["totals"]["jobs"] == 3
        assert doc["totals"]["failed"] == 0
        assert len(doc["jobs"]) == 3
        stdout = capsys.readouterr().out
        assert "[3/3]" in stdout
        assert "3 ok, 0 degraded, 0 failed" in stdout

    def test_manifest_file(self, tmp_path, capsys):
        manifest = tmp_path / "suite.txt"
        manifest.write_text("# tiny suite\nrd53\nxor5\n")
        assert main(["batch", "--manifest", str(manifest),
                     "--no-cache"]) == 0
        assert "2 job(s)" in capsys.readouterr().out

    def test_cache_warm_second_run_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["batch", "rd53", "xor5", "--jobs", "2",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache hits 0/2" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache hits 2/2" in warm

    def test_failed_job_exits_nonzero(self, tmp_path, capsys):
        assert main(["batch", "rd53",
                     "pla:" + str(tmp_path / "missing.pla"),
                     "--no-cache"]) == 1
        assert "1 failed" in capsys.readouterr().out

    def test_include_blif(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert main(["batch", "xor5", "--no-cache", "--include-blif",
                     "--out", str(out)]) == 0
        [row] = [json.loads(line)
                 for line in out.read_text().splitlines()]
        assert ".model" in row["result"]["blif"]

    def test_compare_flow(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["batch", "rd73", "--flow", "compare",
                     "--no-cache", "--out", str(out)]) == 0
        [row] = [json.loads(line)
                 for line in out.read_text().splitlines()]
        assert row["flow"] == "compare"
        assert "clbs_saved" in row["result"]
        assert "saves" in capsys.readouterr().out

    def test_bad_manifest_line_is_clean_error(self, tmp_path):
        manifest = tmp_path / "suite.txt"
        manifest.write_text("rd53\nsynth:broken\n")
        with pytest.raises(SystemExit, match="manifest line 2"):
            main(["batch", "--manifest", str(manifest), "--no-cache"])


class TestCacheCli:
    def test_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["batch", "xor5", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = capsys.readouterr().out
        assert "entries   : 1" in stats
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries   : 0" in capsys.readouterr().out


class TestMapCache:
    def test_warm_map_prints_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["map", "rd53", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "(cached)" not in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(cached)" in warm

    def test_cached_blif_out_matches_fresh(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        fresh = tmp_path / "fresh.blif"
        cached = tmp_path / "cached.blif"
        assert main(["map", "rd53", "--cache-dir", cache_dir,
                     "--blif-out", str(fresh)]) == 0
        assert main(["map", "rd53", "--cache-dir", cache_dir,
                     "--blif-out", str(cached)]) == 0
        assert cached.read_text() == fresh.read_text()

    def test_dsd_switch_keys_apart(self, tmp_path, capsys, monkeypatch):
        # rd84 maps to 9 CLBs with the DSD pre-pass and to 8 without it,
        # so a key that ignored the switch would replay the other row.
        monkeypatch.setenv("REPRO_DSD", "on")
        cache_dir = str(tmp_path / "cache")
        assert main(["map", "rd84", "--cache-dir", cache_dir]) == 0
        assert "9 CLBs" in capsys.readouterr().out
        assert main(["map", "rd84", "--no-dsd",
                     "--cache-dir", cache_dir]) == 0
        off = capsys.readouterr().out
        assert "8 CLBs" in off and "(cached)" not in off
        assert main(["map", "rd84", "--no-dsd",
                     "--cache-dir", cache_dir]) == 0
        assert "8 CLBs, depth 3 (cached)" in capsys.readouterr().out

        # The other direction: a DSD-on batch over a cache holding only
        # the DSD-off row must recompute, not hit.
        cache_dir = str(tmp_path / "off-only")
        assert main(["map", "rd84", "--no-dsd",
                     "--cache-dir", cache_dir]) == 0
        monkeypatch.setenv("REPRO_DSD", "on")
        out = tmp_path / "rows.jsonl"
        assert main(["batch", "rd84", "--cache-dir", cache_dir,
                     "--out", str(out)]) == 0
        [row] = [json.loads(line)
                 for line in out.read_text().splitlines()]
        assert row["cache_hit"] is False
        assert row["result"]["clb_count"] == 9


class TestCompareExitCode:
    def test_mismatch_exits_nonzero(self, capsys, monkeypatch):
        import repro.verify.equiv as equiv

        monkeypatch.setattr(
            equiv, "check_extension",
            lambda func, net: EquivResult(
                equivalent=False, failing_output="f0",
                counterexample={"x0": 0}))
        assert main(["compare", "xor5"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_equivalent_exits_zero(self, capsys):
        assert main(["compare", "xor5"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out
