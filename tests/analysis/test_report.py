"""Tests for the condensed reproduction report."""

import pytest

from repro.analysis.report import SECTIONS, generate_report


class TestGenerateReport:
    def test_all_sections_render(self):
        text = generate_report()
        assert text.startswith("# Reproduction report")
        for heading in [
            "## Bound function",
            "## Adversary duels",
            "## Random workload comparison",
            "## Commitment-model taxonomy",
            "## Randomized single machine",
            "## Weighted impossibility",
            "## Dominant-phase growth rate",
            "## Simulation kernel",
            "## Fault-tolerant sweeps",
            "## Bracket cache (content-addressed OPT reuse)",
            "## Sharded execution",
            "## Elastic execution",
        ]:
            assert heading in text, heading

    def test_subset(self):
        text = generate_report(["bounds"])
        assert "## Bound function" in text
        assert "## Adversary duels" not in text

    def test_unknown_section(self):
        with pytest.raises(ValueError, match="unknown report sections"):
            generate_report(["nope"])

    def test_sections_registry_complete(self):
        assert set(SECTIONS) == {
            "bounds",
            "duels",
            "workloads",
            "commitment-models",
            "randomized",
            "impossibility",
            "growth",
            "planning",
            "engine",
            "resilience",
            "performance",
            "sharding",
            "transport",
            "elastic",
        }

    def test_performance_section(self):
        text = generate_report(["performance"])
        assert "## Bracket cache" in text
        assert "cold" in text and "warm" in text
        assert "100%" in text  # the warm pass hits on every bracket

    def test_sharding_section(self):
        text = generate_report(["sharding"])
        assert "## Sharded execution" in text
        assert "straggler ratio" in text
        assert "local x2" in text  # scheduler + worker count stamped
        assert "bit-identical to the single-host run: **yes**" in text

    def test_elastic_section(self):
        text = generate_report(["elastic"])
        assert "## Elastic execution" in text
        assert "10x slow" in text and "dies mid-sweep" in text
        assert "worker straggler ratio" in text
        assert "bit-identical\nto the serial run under worker chaos: **yes**" in text

    def test_planning_section(self):
        text = generate_report(["planning"])
        assert "Capacity planning" in text
        assert "machines needed" in text

    def test_report_contains_key_numbers(self):
        text = generate_report(["bounds", "duels"])
        # Eq. (1) agreement at machine precision and the 2/7 corner.
        assert "e-1" in text  # scientific-notation error
        assert "0.2857" in text

    def test_cli_report_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        assert main(["report", "--sections", "bounds", "--out", str(out)]) == 0
        assert out.read_text().startswith("# Reproduction report")
