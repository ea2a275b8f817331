#!/usr/bin/env python3
"""Fixture tests for bfly_lint: every rule must fire on its violation
fixture, every justified annotation must suppress, and malformed annotations
must themselves be findings. Run directly or via ctest (bfly_lint_selftest).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bfly_lint  # noqa: E402

FIXTURES = HERE / "fixtures"


def lint(path: Path) -> list[bfly_lint.Finding]:
    return bfly_lint.scan_file(path, HERE.parent.parent).findings


def expected_lines(path: Path, marker: str = "VIOLATION") -> set[int]:
    """Lines tagged `// VIOLATION <rule>` in a fixture."""
    lines = set()
    for idx, raw in enumerate(path.read_text().splitlines(), start=1):
        if marker in raw:
            lines.add(idx)
    return lines


class RuleFiresTest(unittest.TestCase):
    """Each rule fires exactly on its fixture's marked lines."""

    def check_fixture(self, name: str, rule: str):
        path = FIXTURES / name
        findings = lint(path)
        got = {f.line for f in findings}
        want = expected_lines(path)
        self.assertTrue(want, f"{name} has no VIOLATION markers")
        self.assertEqual(got, want,
                         f"{name}: findings {sorted(got)} != "
                         f"marked {sorted(want)}")
        for f in findings:
            self.assertEqual(f.rule, rule, f"{name}:{f.line} fired {f.rule}")

    def test_banned_rng(self):
        self.check_fixture("banned_rng_violation.cc", "banned-rng")

    def test_unordered_iteration_feeding_release(self):
        self.check_fixture("unordered_release_violation.cc",
                           "unordered-iteration")

    def test_writer_bypass(self):
        self.check_fixture("writer_bypass_violation.cc", "writer-bypass")

    def test_float_support_accum(self):
        self.check_fixture("float_support_violation.cc",
                           "float-support-accum")

    def test_container_promotion(self):
        self.check_fixture("container_promotion_violation.cc",
                           "container-promotion")

    def test_policy_rng(self):
        self.check_fixture("policy_rng_violation.cc", "policy-rng")

    def test_ordering_taint_cross_function(self):
        # The decoy sort defeats the same-site unordered-iteration lookahead,
        # so only the interprocedural taint rule can catch these sinks — the
        # single-rule assertion in check_fixture proves the old rule stayed
        # silent while the flow rule fired at both the direct sink and the
        # helper call whose parameter reaches a writer.
        self.check_fixture("taint_chain_violation.cc", "ordering-taint")

    def test_ordering_taint_sorted_chains_are_clean(self):
        findings = lint(FIXTURES / "taint_chain_ok.cc")
        self.assertEqual(findings, [],
                         "sorted producer/caller chains must lint clean: " +
                         "; ".join(f.render(FIXTURES) for f in findings))

    def test_policy_budget(self):
        self.check_fixture("policy_budget_violation.cc", "policy-budget")

    def test_policy_budget_composition_is_clean(self):
        # Draws inside ReleaseItems + accounting inside ReleaseCommon is the
        # sanctioned shape; a justified allowance covers the harness draw.
        findings = lint(FIXTURES / "policy_budget_allowed.cc")
        self.assertEqual(findings, [],
                         "composition-helper accounting must lint clean: " +
                         "; ".join(f.render(FIXTURES) for f in findings))

    def test_lock_discipline(self):
        self.check_fixture("lock_discipline_violation.cc", "lock-discipline")

    def test_raw_atomic(self):
        # Declarations, memory orders and atomic_ref all fire; the justified
        # cursor and the mention inside a comment do not.
        self.check_fixture("raw_atomic_violation.cc", "raw-atomic")

    def test_raw_clock(self):
        # steady/system/high_resolution clocks fire, with or without the
        # std::chrono qualifier; the justified site, a duration type and the
        # clock named in a comment or a string do not.
        self.check_fixture("raw_clock_violation.cc", "raw-clock")

    def test_raw_clock_exemptions_are_path_based(self):
        self.assertTrue(bfly_lint.raw_clock_exempt("src/common/timing.h"))
        self.assertTrue(bfly_lint.raw_clock_exempt("bench/e2e/bfly_bench.cc"))
        self.assertFalse(bfly_lint.raw_clock_exempt("src/core/butterfly.cc"))
        self.assertFalse(bfly_lint.raw_clock_exempt("bench/fig8_overhead.cc"))

    def test_stale_allowance(self):
        self.check_fixture("stale_allowance.cc", "stale-allow")

    def test_policy_rng_gate_is_path_based(self):
        # The same banned sources outside a policy/ path or policy_* name
        # must not fire policy-rng (banned-rng has its own fixture).
        findings = lint(FIXTURES / "banned_rng_violation.cc")
        self.assertNotIn("policy-rng", {f.rule for f in findings})
        self.assertTrue(bfly_lint.is_policy_source("src/policy/foo.cc"))
        self.assertTrue(bfly_lint.is_policy_source("tests/policy_bar.cc"))
        self.assertFalse(bfly_lint.is_policy_source("src/core/butterfly.cc"))


class SuppressionTest(unittest.TestCase):
    def test_justified_annotations_suppress_everything(self):
        findings = lint(FIXTURES / "allowed_annotations.cc")
        self.assertEqual(findings, [],
                         "justified allowances must lint clean: " +
                         "; ".join(f.render(FIXTURES) for f in findings))

    def test_annotations_are_recorded_for_audit(self):
        scan = bfly_lint.scan_file(FIXTURES / "allowed_annotations.cc",
                                   HERE.parent.parent)
        self.assertGreaterEqual(len(scan.allowances), 5)
        for a in scan.allowances:
            self.assertTrue(a.justification)

    def test_bad_allowances_are_findings(self):
        findings = lint(FIXTURES / "bad_allowance.cc")
        rules = sorted(f.rule for f in findings)
        # Empty justification and unknown rule are both flagged; the empty
        # one still suppresses nothing extra because the rand() call under
        # it is covered (the annotation exists, just unjustified).
        self.assertIn("bad-allowance", rules)
        self.assertGreaterEqual(rules.count("bad-allowance"), 2)


class WholeTreeTest(unittest.TestCase):
    """The committed tree itself lints clean — the CI gate in miniature."""

    def test_repo_sources_are_clean(self):
        root = HERE.parent.parent
        findings = []
        for target in bfly_lint.default_targets(root):
            findings.extend(lint(target))
        self.assertEqual(
            [], [f.render(root) for f in findings],
            "committed sources must lint clean")


if __name__ == "__main__":
    unittest.main(verbosity=2)
