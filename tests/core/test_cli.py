"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rd84" in out
        assert "synthetic" in out


class TestMap:
    def test_map_benchmark(self, capsys):
        assert main(["map", "rd73"]) == 0
        out = capsys.readouterr().out
        assert "mulop-dc" in out
        assert "CLBs" in out

    def test_map_no_dc(self, capsys):
        assert main(["map", "--no-dc", "rd73"]) == 0
        assert "mulopII" in capsys.readouterr().out

    def test_map_generator(self, capsys):
        assert main(["map", "adder4"]) == 0
        assert "CLBs" in capsys.readouterr().out

    def test_map_pla(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 3\n.o 1\n11- 1\n--1 1\n.e\n")
        assert main(["map", "--pla", str(pla)]) == 0
        assert "CLBs" in capsys.readouterr().out

    def test_map_blif_out(self, tmp_path, capsys):
        out_file = tmp_path / "mapped.blif"
        assert main(["map", "rd73", "--blif-out", str(out_file)]) == 0
        text = out_file.read_text()
        assert ".model" in text
        from repro.boolfunc.blif import parse_blif
        mf = parse_blif(text)
        assert mf.num_inputs == 7

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main(["map"])

    def test_no_dsd_flag_sets_env(self, monkeypatch, capsys):
        # setenv (not delenv) so teardown undoes what main() writes.
        monkeypatch.setenv("REPRO_DSD", "on")
        assert main(["map", "rd73", "--no-dsd"]) == 0
        import os
        assert os.environ["REPRO_DSD"] == "off"


class TestGates:
    def test_gates_adder(self, capsys):
        assert main(["gates", "adder3"]) == 0
        out = capsys.readouterr().out
        assert "two-input gates" in out

    def test_gates_pm(self, capsys):
        assert main(["gates", "pm2"]) == 0
        assert "two-input gates" in capsys.readouterr().out


class TestVerify:
    def test_verify_benchmark(self, capsys):
        assert main(["verify", "rd73"]) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    def test_verify_no_dc(self, capsys):
        assert main(["verify", "--no-dc", "z4ml"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_map_trace(self, capsys):
        assert main(["map", "--trace", "rd73"]) == 0
        out = capsys.readouterr().out
        assert "decomposition steps" in out
        assert "step " in out


class TestCompare:
    def test_compare_row(self, capsys):
        assert main(["compare", "rd84"]) == 0
        out = capsys.readouterr().out
        assert "mulopII" in out and "mulop-dc" in out
        assert "saves" in out


class TestBlifInput:
    def test_map_blif_file(self, tmp_path, capsys):
        blif = tmp_path / "f.blif"
        blif.write_text(
            ".model t\n.inputs a b c\n.outputs y\n"
            ".names a b t1\n11 1\n.names t1 c y\n1- 1\n-1 1\n.end\n")
        assert main(["map", "--blif", str(blif)]) == 0
        assert "CLBs" in capsys.readouterr().out
