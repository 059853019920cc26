"""``ProgressTracker`` counts and rates without requiring any logging setup."""

from __future__ import annotations

from benchmarks.progress import ProgressTracker


class TestProgressTracker:
    def test_counts_and_rates_without_logging_setup(self):
        tracker = ProgressTracker("unit", total=500, unit="rows", min_interval_s=9999.0)
        for _ in range(500):
            tracker.advance()
        report = tracker.finish()
        assert report["count"] == 500
        assert report["rate"] > 0
        assert report["elapsed_s"] > 0

    def test_advance_by_step(self):
        tracker = ProgressTracker("unit")
        tracker.advance(128)
        tracker.advance(72)
        assert tracker.finish()["count"] == 200

    def test_quiet_by_default(self, capsys):
        tracker = ProgressTracker("quiet", min_interval_s=0.0)
        tracker.advance()
        tracker.finish()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
