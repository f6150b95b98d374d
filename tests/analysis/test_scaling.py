"""Build-scaling measurement plumbing: probe, rows, RSS capture."""

from __future__ import annotations

import json

import pytest

from repro.analysis.scale_probe import peak_rss_mb
from repro.analysis.timing import BuildScalingRow


class TestPeakRss:
    def test_positive_and_monotonic(self):
        first = peak_rss_mb()
        assert first > 0
        assert peak_rss_mb() >= first


class TestBuildScalingRow:
    def _row(self, **overrides):
        base = dict(size="tiny", num_users=2000, num_items=1500,
                    interactions=38914, mode="chunked(65536)",
                    build_seconds=2.0, build_peak_rss_mb=100.0,
                    fingerprint="ab" * 8)
        base.update(overrides)
        return BuildScalingRow(**base)

    def test_throughput(self):
        assert self._row().interactions_per_second == pytest.approx(
            38914 / 2.0)

    def test_as_row_separates_build_rss_from_runtime_rss(self):
        cells = self._row().as_row()
        # both columns exist and mean different processes: the build
        # subprocess's peak vs the measuring process's own peak
        assert cells["Build peak RSS (MB)"] == 100.0
        assert cells["Peak RSS (MB)"] > 0
        assert cells["Mode"] == "chunked(65536)"
        assert cells["Fingerprint"] == "ab" * 8


class TestScaleProbe:
    def test_probe_reports_a_build(self, capsys):
        from repro.analysis.scale_probe import main
        assert main(["--size", "tiny", "--num-users", "300",
                     "--num-items", "200", "--chunk-rows", "64"]) == 0
        report = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1])
        assert report["num_users"] == 300
        assert report["interactions"] > 0
        assert report["maxrss_mb"] > 0
        assert len(report["fingerprint"]) == 16

    def test_probe_modes_agree_on_content(self, capsys):
        from repro.analysis.scale_probe import main
        fingerprints = []
        for extra in ([], ["--chunk-rows", "97"]):
            assert main(["--size", "tiny", "--num-users", "300",
                         "--num-items", "200", *extra]) == 0
            out = capsys.readouterr().out.strip().splitlines()[-1]
            fingerprints.append(json.loads(out)["fingerprint"])
        assert fingerprints[0] == fingerprints[1]
