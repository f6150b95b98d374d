"""Tests for the shared result writer."""

from __future__ import annotations

from repro.eval.reporting import write_text_result


class TestReport:
    def test_write_text_result_guarantees_one_trailing_newline(
            self, tmp_path):
        """The single result-writing entry point (shared by the
        benchmark harnesses and the CLI) normalizes the file tail."""
        for text in ("table", "table\n", "table\n\n\n"):
            path = write_text_result(tmp_path / "deep" / "t.txt", text)
            assert path.read_text() == "table\n"
        # interior newlines (multi-table results files) are preserved
        path = write_text_result(tmp_path / "multi.txt", "a\n\nb\n")
        assert path.read_text() == "a\n\nb\n"
