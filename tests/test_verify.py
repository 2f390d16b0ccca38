import pytest

from beliefgames.cli import main
from beliefgames.verify import CHECKS, verification_suite


def test_full_suite_passes():
    manifest = verification_suite()
    assert manifest["all_passed"] is True
    assert set(manifest["checks"]) == set(CHECKS)
    for name, result in manifest["checks"].items():
        assert result["passed"], name
        assert result["detail"]


def test_filter_selects_matching_checks():
    manifest = verification_suite(only="softmax")
    assert set(manifest["checks"]) == {"softmax_bisection", "gumbel_softmax"}
    assert manifest["all_passed"] is True


def test_filter_with_no_match_raises():
    with pytest.raises(ValueError, match="no verification checks match"):
        verification_suite(only="zzz_nothing")


def test_a_raising_check_fails_and_the_rest_still_run(monkeypatch, capsys):
    def broken():
        raise RuntimeError("solver blew up")

    monkeypatch.setitem(CHECKS, "softmax_bisection", broken)
    manifest = verification_suite(only="softmax")
    assert manifest["checks"]["softmax_bisection"] == {
        "passed": False, "detail": "RuntimeError: solver blew up"}
    assert manifest["checks"]["gumbel_softmax"]["passed"] is True
    assert manifest["all_passed"] is False
    assert main(["verify", "--only", "softmax"]) == 3
    out = capsys.readouterr().out
    assert "FAIL softmax_bisection: RuntimeError: solver blew up" in out
    assert "PASS gumbel_softmax" in out


def test_kkt_bisection_replay_reaches_the_one_call_path(monkeypatch):
    # the drifting paths' rows certify most predicted kappas in one kernel call,
    # with no Newton phase, and every row keeps plain bisection's bits
    import beliefgames.response as response

    counts = {"solves": 0, "newton": 0}
    solve, newton = response._kkt_solve, response._newton_bracket

    def counted(name, fn):
        return lambda *args: (counts.__setitem__(name, counts[name] + 1), fn(*args))[1]

    monkeypatch.setattr(response, "_kkt_solve", counted("solves", solve))
    monkeypatch.setattr(response, "_newton_bracket", counted("newton", newton))
    manifest = verification_suite(only="kkt_bisection_replay")
    assert manifest["checks"]["kkt_bisection_replay"] == {"passed": True, "detail": (
        "0 of 140 solves (40 cold, 40 warm, 60 on drifting paths) differ in some bit")}
    assert counts["solves"] - counts["newton"] >= 40
