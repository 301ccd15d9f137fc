"""Command-line interface: artifacts, determinism, config plumbing, exits."""

import hashlib
import json
import subprocess
import sys

import pytest

from mrwpflood import __version__
from mrwpflood.cli import DEFAULT_CONFIG, load_config, main, resolve_params
from mrwpflood.experiments import lower_bound_params

SMALL = ["--set", "n=400", "--set", "seed=3"]


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path):
    """``path`` parsed as strict JSON: ``NaN`` and ``Infinity`` raise."""

    def reject(name):
        raise ValueError(f"{path} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


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
            ["--set", "v=NaN"],  # non-finite world values
            ["--set", "v=Infinity"],
            ["--set", "eta=NaN"],
            ["--set", "L=Infinity"],
            ["--set", "constants.c2=NaN"],
            ["--set", "n=2000.7"],  # fractional or boolean integers
            ["--set", "n=true"],
            ["--set", "seed=1.5"],
            ["--set", "seed=false"],
        ],
    )
    def test_bad_overrides_exit_2(self, tmp_path, capsys, overrides):
        assert run_cli("zones", "--output-dir", str(tmp_path), "-q", *overrides) == 2
        key = overrides[-1].split("=")[0].split(".")[-1]
        assert key in capsys.readouterr().err  # the message names the key

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

    def test_non_object_constants_in_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"constants": [18.0]}))
        assert run_cli("zones", "--config", str(path), "-q") == 2
        assert "'constants' must be a JSON object" in capsys.readouterr().err

    def test_unknown_constant_in_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"constants": {"a": 9.0, "zz": 1}}))
        assert run_cli("zones", "--config", str(path), "-q") == 2
        assert "unknown constant 'zz'" in capsys.readouterr().err

    def test_unknown_source_rule_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "flood", "--source", "bogus", "--output-dir", str(tmp_path), "-q", *SMALL
        )
        assert code == 2
        assert "run error" in capsys.readouterr().err

    def test_scaling_world_without_a_suburb_exit_2(self, tmp_path, capsys):
        # at c1 = 2.6 the n = 500 world has no suburb cell for the in_suburb
        # rule: a configuration error, not a checker's verdict (exit 1)
        argv = ["scaling", "--scales", "500", "--replicas", "1"]
        argv += ["--set", "constants.c1=2.6", "--output-dir", str(tmp_path), "-q"]
        assert run_cli(*argv) == 2
        assert "run error" in capsys.readouterr().err
        assert not (tmp_path / "scaling.json").exists()

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
        payload = read_json(tmp_path / "zones.json")
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
        payload = read_json(tmp_path / "flood_summary.json")
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
        payload = read_json(tmp_path / "expansion.json")
        assert payload["result"]["mode"] == "exhaustive"
        assert payload["result"]["violations"] == 0

    def test_expansion_check_empty_central_zone(self, tmp_path):
        argv = ["--set", "n=200", "--set", "R=0.5", "--output-dir", str(tmp_path)]
        assert run_cli("expansion-check", "-q", *argv) == 0
        result = read_json(tmp_path / "expansion.json")["result"]
        assert result["cz_size"] == 0 and result["subsets_checked"] == 0
        assert result["worst_margin"] is None and result["witness"] is None

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
        payload = read_json(tmp_path / "lower_bound.json")
        assert payload["result"]["trials"] == 100
        assert payload["result"]["floods"] == 0

    def test_lower_bound_set_speed_keeps_the_scenario_radius(self, tmp_path):
        argv = ["--trials", "200", "--flood-cap", "2", "--set", "v=0.05"]
        assert run_cli("lower-bound", *argv, "--output-dir", str(tmp_path), "-q") == 0
        params = read_json(tmp_path / "lower_bound.json")["result"]["params"]
        scenario, d = lower_bound_params(2000)
        assert params["R"] == 0.9 * d and params["L"] == scenario.L
        assert params["v"] == 0.05

    def test_lower_bound_set_side_is_the_world_side(self, tmp_path):
        # the corner side scales with the set side: d = 0.23 * 40 / 1000^(1/3)
        argv = ["--trials", "100", "--flood-cap", "0", "--set", "n=1000"]
        argv += ["--set", "L=40", "--output-dir", str(tmp_path), "-q"]
        assert run_cli("lower-bound", *argv) == 0
        result = read_json(tmp_path / "lower_bound.json")["result"]
        params = result["params"]
        assert params["L"] == 40
        assert result["d"] == pytest.approx(0.92, rel=1e-15)
        assert params["R"] == 0.9 * result["d"]
        assert params["v"] == params["R"] / DEFAULT_CONFIG["constants"]["c2"]

    def test_world_constants_reach_every_world(self, tmp_path):
        # c1 = 2: at c1 >= 2.6 the n = 500 scaling world has no suburb
        constants = ["--set", "constants.c1=2", "--set", "constants.c2=20"]
        constants += ["--set", "eta=0.5", "-q"]
        commands = [
            (["flood", *SMALL], "flood_summary.json"),
            (
                ["validate-stationary", "--snapshots", "10", "--skip-approx"]
                + ["--tv-limit", "1", *SMALL],
                "stationarity.json",
            ),
            (
                ["lower-bound", "--trials", "100", "--flood-cap", "0"],
                "lower_bound.json",
            ),
            (["scaling", "--scales", "500", "--replicas", "1"], "runs/run_0000.json"),
        ]
        for k, (argv, name) in enumerate(commands):
            out = tmp_path / str(k)
            assert run_cli(*argv, *constants, "--output-dir", str(out)) == 0, argv
            params = read_json(out / name)["result"]["params"]
            assert (params["c1"], params["c2"], params["eta"]) == (2, 20, 0.5), argv
            assert params["v"] == params["R"] / 20, argv

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
        for path in [tmp_path / "scaling.json", *runs]:
            read_json(path)

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
        payload = read_json(tmp_path / "stationarity.json")
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
        payload = read_json(tmp_path / "lemma_sweep.json")
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
        pa = read_json(a / "flood_summary.json")
        pb = read_json(b / "flood_summary.json")
        assert pa["result"]["source_agent"] != pb["result"]["source_agent"] or (
            pa["result"]["flooding_time"] != pb["result"]["flooding_time"]
        )


# (arguments, exit code, sha256 of every file written) at the default
# config (n = 2000, seed 0).  The files embed the package version, so a
# version bump changes every pin; so does a change that alters an RNG
# stream, a sampler or an artifact's format on purpose, which updates these
# pins and says so in CHANGES.md.  validate-stationary exits 1 by design:
# 20 snapshots are too few for its total-variation limit.
PINNED_ARTIFACTS = [
    (
        ["zones"],
        0,
        {
            "zones.csv": "0fd1cf682105bf17fe76bda1ab379e8fb8f51ffc974c164428b28fecef808236",
            "zones.json": "8a1e0e98eae4ea246c2464d08bf58796a25327ce395ceb1b51babd1201c7d99f",
            "zones.svg": "b873ba4dee9060b323826a08cdaac16ddba38b3b2d014563f31eba0b59033605",
        },
    ),
    (
        ["flood"],
        0,
        {
            "flood_progress.csv": "98b6376c4d6a1c42c52851d4f0c88416e34d349cb6574ba40da49cc92a28eb96",
            "flood_summary.json": "33ad2832f68074c5c34a6c9a8ba9420316e1f09e8da62dfeac0e1148febabe16",
        },
    ),
    (
        ["flood", "--check-stability", "--set", "eta=0"],
        1,  # eta = 0 checks every step: 8 stability violations at seed 0
        {
            "flood_progress.csv": "d340db8eb03f79e604c06c27962040d05dbdb7443327716b982c809a0a6dd425",
            "flood_summary.json": "c9fb80c8e1f5131a795758b90267d06cc1391d3976929e0b53ca6253357777c8",
        },
    ),
    (
        ["simulate"],
        0,
        {
            "trajectories.csv": "70fcc87b47d903693cbf93adcfa85b19bef5136ece5e4609b839a616da41db65",
        },
    ),
    (
        ["expansion-check"],
        0,
        {
            "expansion.json": "fe4db6c644b651ea4785f6808b942f98582e065425fdb46ebeb5cfb26a483f75",
        },
    ),
    (
        ["scaling", "--scales", "1000", "--replicas", "2"],
        0,
        {
            "runs/run_0000.json": "f09aeb78a8c6f78e9a6cf37747cf1d09d139a226a9ba7ab9cbb569ee92963534",
            "runs/run_0001.json": "4190eee569f46123e5672136cca3a56c6dc9c7a7627252c7dd4e8d3f2b5e62e7",
            "runs/run_0002.json": "5fdce9d931488722bf86159d7ab896d219772a7c7dbd12bd3ee8c0a987d10c04",
            "runs/run_0003.json": "aae8ec184d4f16db2e5794aa6de0252a30682fe1e2c47622e0918635efb38b84",
            "scaling.csv": "4aaa5f6a6770dbd81a5239977811102433107c5f8927846a0bb58c292291525e",
            "scaling.json": "fc0b5c663cc811efbbc94e1dc5e761b39f45405accec1355d88c6ded464f2c4e",
        },
    ),
    (
        ["lower-bound", "--trials", "200", "--flood-cap", "3"],
        0,
        {
            "lower_bound.json": "33b974f2df7d3ef78b6c5fcd6d961e8762a808fa40b0331846ed8357a38d7b67",
        },
    ),
    (
        ["lemma-sweep", "--skip-expansion", "--skip-density"],
        0,
        {
            "lemma_sweep.csv": "942c70c66f040dd8126a682498602a9c967afe9aff96c3a5310b907a0bde9852",
            "lemma_sweep.json": "0163089961406c2ff887a9ad0549b7ad9be11248188d5b29e85404532c883c21",
        },
    ),
    (
        ["validate-stationary", "--snapshots", "20"],
        1,
        {
            "stationarity.json": "cddc1343a957de6ffa1924e5fde94be2d9a6718eaf765f8cec22623fb897432b",
        },
    ),
]


def test_artifacts_match_pinned_digests(tmp_path):
    mismatches = []
    for k, (argv, want_code, want_files) in enumerate(PINNED_ARTIFACTS):
        out = tmp_path / str(k)
        code = run_cli(*argv, "--output-dir", str(out), "-q")
        files = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        if (code, files) != (want_code, want_files):
            mismatches.append((argv, code, files))
    assert mismatches == []
