"""CLI observability: ``--metrics-out`` schema, ``--profile``, and the
clean rejection of malformed generator names."""

import json

import pytest

from repro.cli import main
from repro.obs import SCHEMA_VERSION

#: Keys every metrics document must carry — the schema-stability
#: contract behind ``--metrics-out`` (additive changes OK, renames and
#: removals require a SCHEMA_VERSION bump and an update here).
TOP_LEVEL_KEYS = {"schema_version", "command", "source", "wall_time_s",
                  "result", "engine", "phases", "bdd"}
ENGINE_KEYS = {"decomposition_steps", "shannon_steps", "alphas_created",
               "alphas_shared", "max_recursion_depth", "budget_exhausted"}
BDD_KEYS = {"num_vars", "nodes", "peak_nodes", "unique_table_size",
            "computed_table_size", "computed_table_capacity",
            "computed_hits", "computed_misses", "computed_evictions",
            "ite_calls", "restrict_calls", "computed_hit_rate"}


class TestMetricsOut:
    def test_map_metrics_schema(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["map", "rd53", "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert TOP_LEVEL_KEYS <= set(doc)
        assert ENGINE_KEYS <= set(doc["engine"])
        assert BDD_KEYS <= set(doc["bdd"])
        assert doc["command"] == "map"
        assert doc["source"] == "rd53"
        assert {"lut_count", "clb_count", "depth"} <= set(doc["result"])
        assert 0.0 <= doc["bdd"]["computed_hit_rate"] <= 1.0
        assert doc["bdd"]["peak_nodes"] >= 2
        for entry in doc["phases"].values():
            assert {"time_s", "calls"} <= set(entry)
            assert entry["time_s"] >= 0.0

    def test_map_counts_score_memo_use(self, tmp_path, capsys):
        """duke2 re-ranks identical bundles, so its run reports greedy
        memo hits, in the engine section and in ``--profile``."""
        out = tmp_path / "m.json"
        assert main(["map", "duke2", "--profile",
                     "--metrics-out", str(out)]) == 0
        engine = json.loads(out.read_text())["engine"]
        assert engine["greedy_memo_hits"] > 0
        assert engine["score_memo_hits"] > 0
        assert engine["greedy_memo_misses"] > 0
        assert engine["score_memo_misses"] > 0
        assert "score memo            :" in capsys.readouterr().out

    def test_gates_metrics(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gates", "pm2", "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "gates"
        assert "gate_count" in doc["result"]
        assert "bdd" in doc

    def test_compare_metrics(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["compare", "rd53", "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "compare"
        assert {"mulopII", "mulop_dc", "clbs_saved"} <= set(doc["result"])


class TestProfileFlag:
    def test_map_profile_output(self, capsys):
        assert main(["map", "rd53", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "computed hit rate" in out
        assert "peak" in out

    def test_compare_profile_shows_both_drivers(self, capsys):
        assert main(["compare", "rd53", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "mulopII" in out and "mulop-dc" in out
        assert out.count("phase profile") == 2


class TestGeneratorNames:
    @pytest.mark.parametrize("bad", ["adderfoo", "adder", "adder0",
                                     "pmx", "pm", "pm0", "adder-3"])
    def test_malformed_generator_exits_cleanly(self, bad):
        with pytest.raises(SystemExit) as exc:
            main(["map", bad])
        assert "adderN" in str(exc.value)
        assert "pmN" in str(exc.value)

    def test_unknown_benchmark_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "nosuchcircuit"])
        assert "repro list" in str(exc.value)

    def test_valid_generator_still_works(self, capsys):
        assert main(["map", "adder2"]) == 0
        assert "CLBs" in capsys.readouterr().out
