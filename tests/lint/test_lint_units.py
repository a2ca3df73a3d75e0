"""The units family: suffix mismatches, raw literals, call mismatches."""

from collections import Counter

UNITS = ["units-suffix-mismatch", "units-raw-literal", "units-call-mismatch"]


def _by_rule(result):
    return Counter(f.rule for f in result.findings)


class TestBadFixture:
    def test_all_three_rules_fire(self, lint):
        counts = _by_rule(lint("units/bad_units.py", rules=UNITS))
        assert counts["units-raw-literal"] == 3
        assert counts["units-suffix-mismatch"] == 2
        assert counts["units-call-mismatch"] == 3

    def test_messages_name_both_units(self, lint):
        result = lint("units/bad_units.py", rules=["units-suffix-mismatch"])
        messages = [f.message for f in result.findings]
        assert any("time [ms]" in m and "time [s]" in m for m in messages)
        assert any("rate [gbps]" in m and "rate [bps]" in m for m in messages)

    def test_positional_args_checked_via_signature_table(self, lint):
        result = lint("units/bad_units.py", rules=["units-call-mismatch"])
        keyword = [f for f in result.findings if "rate_bps" in f.message]
        assert keyword, "keyword mismatch f(rate_bps=link_gbps) not caught"
        assert len(result.findings) == 3

    def test_findings_carry_family_and_location(self, lint):
        result = lint("units/bad_units.py", rules=["units-raw-literal"])
        for finding in result.findings:
            assert finding.family == "units"
            assert finding.path.endswith("bad_units.py")
            assert finding.line > 0 and finding.col > 0


class TestCleanFixture:
    def test_clean_under_units_rules(self, lint):
        assert lint("units/clean_units.py", rules=UNITS).clean

    def test_tolerance_contexts_exempt_small_literals(self, lint):
        # rel_tol default, compare subtree, isclose args, eps assignment:
        # all carry small exponent literals yet none may be flagged
        assert lint("units/clean_units.py", rules=["units-raw-literal"]).clean
