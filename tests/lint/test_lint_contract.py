"""The cca-contract family: no bare negative store into cwnd.

Registration under a name of its own and the on_ack override are
checked at run time, over the classes themselves:
``tests/cc/test_registry.py::TestContract``.
"""

RULE = ["cca-negative-cwnd"]


class TestBadSubclass:
    def test_every_contract_rule_fires_on_bad_cca(self, lint):
        result = lint("contract", rules=RULE)
        assert [(f.rule, f.line) for f in result.findings] == [
            ("cca-negative-cwnd", 10)
        ]

    def test_findings_point_at_bad_module_only(self, lint):
        result = lint("contract", rules=RULE)
        assert all(f.path.endswith("cc/bad.py") for f in result.findings)


class TestCompliantSubclasses:
    def test_good_ccas_are_clean(self, lint):
        assert lint("contract/cc/good.py").clean
