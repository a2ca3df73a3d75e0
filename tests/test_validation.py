"""Tests for the calibration self-check (``greenenvy validate``)."""

from repro.energy.power_model import PowerModel
from repro.figures.specs import CALIBRATION, Claim


def verdicts(model=None):
    """``{label: holds}`` of every calibration check on ``model``."""
    model = PowerModel() if model is None else model
    return {claim.label: claim.check(model)[1] for claim in CALIBRATION}


class TestValidation:
    def test_all_checks_pass_on_shipped_calibration(self):
        failing = [label for label, holds in verdicts().items() if not holds]
        assert not failing, f"calibration broken: {failing}"

    def test_covers_the_anchor_trio(self):
        names = " | ".join(verdicts())
        assert "idle power" in names
        assert "half-rate" in names
        assert "line-rate" in names

    def test_covers_theorem_premise_and_savings(self):
        names = " | ".join(verdicts())
        assert "concavity" in names
        assert "full-speed-then-idle" in names
        assert "datacenter scale" in names

    def test_validation_passed_helper(self):
        good = Claim("a", lambda model: 1, "{}".format, "1", "§0",
                     lambda value: value == 1)
        bad = Claim("b", lambda model: 2, "{}".format, "1", "§0",
                    lambda value: value == 1)
        assert good.check(None) == ("1", True)
        assert bad.check(None) == ("2", False)

    def test_check_count_stable(self):
        """Adding checks is fine; silently losing them is not."""
        assert len(CALIBRATION) >= 10
        assert all(claim.holds is not None for claim in CALIBRATION)

    def test_anchors_are_the_paper_numbers_not_the_constants(self):
        """The model is fitted from the calibration constants, so a check
        against those constants could never fail: a model idling at
        21.79 W must fail the paper's 21.49 W idle anchor."""
        assert not verdicts(PowerModel(p_idle_w=21.79))["idle power anchor"]


class TestCliCommands:
    def test_validate_command(self, capsys):
        from repro.cli import main

        assert main(["validate"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_validate_command_fails_on_a_drifted_model(self, capsys, monkeypatch):
        from functools import partial

        from repro.cli import main
        from repro.energy import power_model

        monkeypatch.setattr(power_model, "PowerModel",
                            partial(PowerModel, p_idle_w=21.79))
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] idle power anchor" in out
        assert "expected 21.49 W (paper §4.1), got 21.79 W" in out
        assert out.endswith("CALIBRATION BROKEN\n")

    def test_loadbalance_command(self, capsys):
        from repro.cli import main

        assert main(["loadbalance"]) == 0
        out = capsys.readouterr().out
        assert "rate-adaptive" in out

    def test_report_command_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "report.md"
        code = main(
            ["report", "--bytes", "8000000", "--reps", "1",
             "-o", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("# Green With Envy")
        assert "claims reproduced" in text
        assert "(8/8 claims ok)" in capsys.readouterr().out
