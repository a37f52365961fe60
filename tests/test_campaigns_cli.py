"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.campaigns.cli import main
from repro.experiments.sweeps import attack_success_sweep


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestList:
    def test_lists_builtin_scenarios(self, capsys):
        out = _run(capsys, "list")
        assert "attack-success-shielded" in out
        assert "passive-ber-by-location" in out
        assert "mimo-eavesdropper" in out

    def test_json_listing_parses(self, capsys):
        payload = json.loads(_run(capsys, "list", "--json"))
        names = {entry["name"] for entry in payload}
        assert "crypto-only-baseline" in names
        assert all("hash" in entry for entry in payload)


class TestRun:
    def test_run_reproduces_the_sweep_numbers(self, capsys, tmp_path):
        out = _run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "3", "--locations", "1,8",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        payload = json.loads(out)
        reference = attack_success_sweep(
            shield_present=False,
            n_trials=3,
            command="therapy",
            attacker="fcc",
            location_indices=(1, 8),
            seed=0,
        )
        assert payload["units"]["computed"] == 2
        for point in payload["points"]:
            ref = reference[point["axis"]]
            assert point["success_probability"] == ref.success_probability
            assert point["alarm_probability"] == ref.alarm_probability

    def test_second_run_completes_from_cache(self, capsys, tmp_path):
        argv = (
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        first = json.loads(_run(capsys, *argv))
        second = json.loads(_run(capsys, *argv))
        assert first["units"]["computed"] == 1
        assert second["units"]["computed"] == 0
        assert second["points"] == first["points"]

    def test_markdown_format(self, capsys, tmp_path):
        out = _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--format", "markdown",
        )
        assert "| location |" in out.splitlines()[2]

    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--no-cache",
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scenario_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "not-a-scenario"])

    def test_bad_locations_exit_with_error(self):
        with pytest.raises(SystemExit, match="locations"):
            main(["run", "attack-success-shielded", "--locations", "1,x"])

    def test_out_of_range_location_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown testbed location"):
            main(["run", "attack-success-shielded", "--locations", "99"])

    def test_inapplicable_override_exits_with_error(self):
        with pytest.raises(SystemExit, match="do not apply"):
            main(["run", "mimo-eavesdropper", "--locations", "1"])

    def test_negative_workers_exit_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="workers"):
            main([
                "run", "attack-success-shielded",
                "--trials", "2", "--locations", "1",
                "--cache-dir", str(tmp_path), "--workers", "-1",
            ])

    def test_points_carry_integer_counts(self, capsys, tmp_path):
        payload = json.loads(_run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "3", "--locations", "1",
            "--cache-dir", str(tmp_path), "--format", "json",
        ))
        point = payload["points"][0]
        assert point["wins"] == 3
        assert point["alarms"] == 0


class TestStatus:
    def test_status_tracks_cache(self, capsys, tmp_path):
        argv = (
            "status", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path), "--json",
        )
        before = json.loads(_run(capsys, *argv))
        assert before["cached_units"] == 0
        assert before["total_units"] == 2
        _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path),
        )
        after = json.loads(_run(capsys, *argv))
        assert after["cached_units"] == 2


class TestCompare:
    def test_shielded_vs_unshielded(self, capsys, tmp_path):
        out = _run(
            capsys,
            "compare", "attack-success-unshielded", "attack-success-shielded",
            "--trials", "3", "--locations", "1,4",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        payload = json.loads(out)
        assert payload["value_key"] == "success_probability"
        # The paper's headline: the shield zeroes the attack everywhere,
        # and the bare IMD falls at close range.
        by_axis = {row["axis"]: row for row in payload["comparison"]}
        assert by_axis[1]["attack-success-unshielded"] == 1.0
        assert by_axis[1]["attack-success-shielded"] == 0.0
        assert by_axis[1]["delta"] == -1.0

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(SystemExit, match="cannot compare"):
            main(["compare", "attack-success-shielded", "passive-ber-by-location"])


class TestProfileFlag:
    def test_profile_writes_loadable_pstats(self, capsys, tmp_path):
        import pstats

        out = _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path), "--profile",
        )
        profile_path = tmp_path / "profiles" / "attack-success-shielded.pstats"
        assert str(profile_path) in out
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_profile_with_everything_cached_reports_nothing_to_do(
        self, capsys, tmp_path
    ):
        argv = (
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path),
        )
        _run(capsys, *argv)
        out = _run(capsys, *argv, "--profile")
        assert "nothing to profile" in out

    def test_profile_does_not_change_results(self, capsys, tmp_path):
        profiled = json.loads(_run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "2", "--locations", "1,4",
            "--cache-dir", str(tmp_path / "p"), "--profile",
            "--format", "json",
        ))
        plain = json.loads(_run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "2", "--locations", "1,4",
            "--cache-dir", str(tmp_path / "q"), "--format", "json",
        ))
        assert profiled["points"] == plain["points"]
