"""Command-line interface: artifacts, determinism, config plumbing, exits."""

import json
import subprocess
import sys

import pytest

from mrwpflood import __version__
from mrwpflood.cli import DEFAULT_CONFIG, load_config, main, resolve_params

SMALL = ["--set", "n=400", "--set", "seed=3"]


def run_cli(*argv) -> int:
    return main(list(argv))


class TestConfigPlumbing:
    def test_defaults(self):
        config = load_config(None, [])
        assert config == DEFAULT_CONFIG
        params = resolve_params(config)
        assert params.n == 2000 and params.L == pytest.approx(2000**0.5)

    def test_override_parsing_types(self):
        config = load_config(None, ["n=500", "v=0.25", "init=warmup"])
        assert config["n"] == 500 and config["v"] == 0.25
        assert config["init"] == "warmup"

    def test_dotted_constant_override(self):
        config = load_config(None, ["constants.c1=2.0", "constants.a=9"])
        assert config["constants"]["c1"] == 2.0
        assert config["constants"]["a"] == 9

    def test_config_file_then_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 500, "constants": {"c1": 2.0}}))
        config = load_config(str(path), ["n=600"])
        assert config["n"] == 600  # --set wins over the file
        assert config["constants"]["c1"] == 2.0
        assert config["eta"] == DEFAULT_CONFIG["eta"]  # untouched keys keep defaults


class TestExitCodes:
    @pytest.mark.parametrize(
        "overrides",
        [
            ["--set", "bogus=1"],
            ["--set", "constants.zz=1"],
            ["--set", "noequalsign"],
            ["--set", "n=0"],  # invalid world size
            ["--set", "R=-1"],
        ],
    )
    def test_bad_overrides_exit_2(self, tmp_path, overrides):
        assert run_cli("zones", "--output-dir", str(tmp_path), "-q", *overrides) == 2

    def test_missing_config_file_exit_2(self, tmp_path):
        assert (
            run_cli("zones", "--config", str(tmp_path / "nope.json"), "-q") == 2
        )

    def test_malformed_config_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("zones", "--config", str(path), "-q") == 2

    def test_non_object_config_file_exit_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run_cli("zones", "--config", str(path), "-q") == 2

    def test_unknown_key_in_config_file_exit_2(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"radius": 3}))
        assert run_cli("zones", "--config", str(path), "-q") == 2

    def test_unknown_source_rule_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "flood", "--source", "bogus", "--output-dir", str(tmp_path), "-q", *SMALL
        )
        assert code == 2
        assert "run error" in capsys.readouterr().err

    def test_degenerate_heatmap_origin_exit_2(self, tmp_path):
        code = run_cli(
            "heatmap", "--origin", "0,0", "--output-dir", str(tmp_path), "-q", *SMALL
        )
        assert code == 2
        code = run_cli(
            "heatmap", "--origin", "1,2,3", "--output-dir", str(tmp_path), "-q"
        )
        assert code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "mrwpflood", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == __version__


class TestOutputRouting:
    def test_env_var_directory(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("MRWPFLOOD_OUTPUT_DIR", str(target))
        assert run_cli("zones", "-q", *SMALL) == 0
        assert (target / "zones.json").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MRWPFLOOD_OUTPUT_DIR", str(tmp_path / "ignored"))
        target = tmp_path / "from_flag"
        assert run_cli("zones", "--output-dir", str(target), "-q", *SMALL) == 0
        assert (target / "zones.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_default_is_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("zones", "-q", *SMALL) == 0
        assert (tmp_path / "zones.json").exists()

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        run_cli("zones", "--output-dir", str(tmp_path), "-q", *SMALL)
        assert capsys.readouterr().out == ""
        run_cli("zones", "--output-dir", str(tmp_path), *SMALL)
        assert "zones.svg" in capsys.readouterr().out


class TestArtifacts:
    def test_zones_files(self, tmp_path):
        assert run_cli("zones", "--output-dir", str(tmp_path), "-q", *SMALL) == 0
        payload = json.loads((tmp_path / "zones.json").read_text())
        assert payload["artifact_version"] == __version__
        assert payload["config"]["n"] == 400
        assert "rng_algorithm" in payload
        m = payload["result"]["m"]
        csv_lines = (tmp_path / "zones.csv").read_text().splitlines()
        data = [l for l in csv_lines if not l.startswith("#")]
        assert len(data) == m * m + 1  # header plus one row per cell
        svg = (tmp_path / "zones.svg").read_text()
        assert svg.startswith("<!--") and "<svg" in svg

    def test_simulate_trajectories(self, tmp_path):
        code = run_cli(
            "simulate",
            "--steps",
            "5",
            "--agents",
            "3",
            "--output-dir",
            str(tmp_path),
            "-q",
            *SMALL,
        )
        assert code == 0
        lines = (tmp_path / "trajectories.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "step,agent,x,y,heading,leg"
        assert len(data) == 1 + 3 * 6  # header + 3 agents x (initial + 5 steps)

    def test_flood_summary_and_progress(self, tmp_path):
        code = run_cli("flood", "--output-dir", str(tmp_path), "-q", *SMALL)
        assert code == 0
        payload = json.loads((tmp_path / "flood_summary.json").read_text())
        result = payload["result"]
        assert result["flooding_time"] >= 1
        assert result["timed_out"] is False
        assert result["progress"][-1][1] == 400  # everyone informed at the end
        lines = (tmp_path / "flood_progress.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + result["flooding_time"] + 1  # header + steps 0..T

    def test_expansion_check_exhaustive(self, tmp_path):
        code = run_cli(
            "expansion-check",
            "--mode",
            "exhaustive",
            "--output-dir",
            str(tmp_path),
            "-q",
            "--set",
            "n=500",
            "--set",
            "R=30",
        )
        assert code == 0
        payload = json.loads((tmp_path / "expansion.json").read_text())
        assert payload["result"]["mode"] == "exhaustive"
        assert payload["result"]["violations"] == 0

    def test_heatmap_files(self, tmp_path):
        code = run_cli(
            "heatmap", "--bins", "10", "--output-dir", str(tmp_path), "-q", *SMALL
        )
        assert code == 0
        for name in ("heatmap_spatial.svg", "heatmap_destination.svg"):
            text = (tmp_path / name).read_text()
            assert text.startswith("<!--") and text.rstrip().endswith("</svg>")

    def test_lower_bound_artifact(self, tmp_path):
        code = run_cli(
            "lower-bound",
            "--trials",
            "100",
            "--flood-cap",
            "0",
            "--output-dir",
            str(tmp_path),
            "-q",
            "--set",
            "n=1000",
        )
        assert code == 0
        payload = json.loads((tmp_path / "lower_bound.json").read_text())
        assert payload["result"]["trials"] == 100
        assert payload["result"]["floods"] == 0

    def test_scaling_artifacts(self, tmp_path):
        code = run_cli(
            "scaling",
            "--scales",
            "500",
            "--replicas",
            "2",
            "--output-dir",
            str(tmp_path),
            "-q",
        )
        assert code == 0
        assert (tmp_path / "scaling.csv").exists()
        runs = sorted((tmp_path / "runs").glob("run_*.json"))
        assert len(runs) == 4  # 2 replicas x 2 source rules

    def test_validate_stationary_exit_codes(self, tmp_path):
        base = [
            "validate-stationary",
            "--bins",
            "5",
            "--snapshots",
            "10",
            "--skip-approx",
            "--output-dir",
            str(tmp_path),
            "-q",
            *SMALL,
        ]
        assert run_cli(*base, "--tv-limit", "1.0") == 0
        assert run_cli(*base, "--tv-limit", "1e-9") == 1
        payload = json.loads((tmp_path / "stationarity.json").read_text())
        assert payload["result"]["tv_init"] is None

    def test_lemma_sweep_negative_control_exit_1(self, tmp_path):
        skips = ["--skip-expansion", "--skip-density", "--skip-turns"]
        code = run_cli(
            "lemma-sweep",
            "--suburb-scale",
            "0.05",
            *skips,
            "--output-dir",
            str(tmp_path),
            "-q",
        )
        assert code == 1
        payload = json.loads((tmp_path / "lemma_sweep.json").read_text())
        assert payload["result"]["ok"] is False
        assert run_cli("lemma-sweep", *skips, "--output-dir", str(tmp_path), "-q") == 0


class TestDeterminism:
    def test_flood_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("flood", "--output-dir", str(out), "-q", *SMALL) == 0
        for name in ("flood_summary.json", "flood_progress.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zones_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("zones", "--output-dir", str(out), "-q", *SMALL) == 0
        for name in ("zones.json", "zones.csv", "zones.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_flood(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("flood", "--output-dir", str(a), "-q", "--set", "n=400")
        run_cli(
            "flood", "--output-dir", str(b), "-q", "--set", "n=400", "--set", "seed=1"
        )
        pa = json.loads((a / "flood_summary.json").read_text())
        pb = json.loads((b / "flood_summary.json").read_text())
        assert pa["result"]["source_agent"] != pb["result"]["source_agent"] or (
            pa["result"]["flooding_time"] != pb["result"]["flooding_time"]
        )
