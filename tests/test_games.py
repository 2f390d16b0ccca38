import itertools
import json
import re

import numpy as np
import pytest

from beliefgames.games import (
    Game,
    StrategyProfile,
    expected_payoff,
    load_game,
    matching_game,
    pairwise_payoff_matrix,
    payoff_vector,
    payoff_vector_rows,
    random_game,
    random_profile,
    save_game,
    uniform_profile,
)
from beliefgames.oracles import exhaustive_profile_payoff


def test_game_shape_and_counts():
    g = matching_game(3)
    assert g.num_players == 2
    assert g.num_actions == 3
    assert g.payoffs[0].shape == (3, 3)
    assert repr(g) == "Game(players=2, actions=3)"


def test_game_rejects_single_player():
    with pytest.raises(ValueError, match="two players"):
        Game([np.eye(2)])


def test_game_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Game([np.eye(2), np.ones((2, 3))])


def test_game_rejects_payoffs_outside_unit_interval():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Game([np.eye(2) * 1.5, np.eye(2)])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Game([np.eye(2) - 0.5, np.eye(2)])


def test_game_rejects_nonfinite_entries():
    bad = np.eye(2)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Game([bad, np.eye(2)])


def test_game_rejects_single_action():
    with pytest.raises(ValueError, match="two actions"):
        Game([np.ones((1, 1)), np.ones((1, 1))])


def test_game_is_immutable():
    g = matching_game(2)
    with pytest.raises(AttributeError):
        g.payoffs = ()
    with pytest.raises(ValueError):
        g.payoffs[0][0, 0] = 0.5


def test_profile_validation():
    StrategyProfile([[0.5, 0.5], [1.0, 0.0]])  # fine
    with pytest.raises(ValueError, match="2-D"):
        StrategyProfile([0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        StrategyProfile([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        StrategyProfile([[np.inf, 0.0], [0.5, 0.5]])


def test_profile_rejects_offsimplex_rows_instead_of_renormalizing():
    with pytest.raises(ValueError, match="sum to 1"):
        StrategyProfile([[0.6, 0.5], [0.5, 0.5]])
    # a 1e-6 defect is far beyond the tolerance and must not be washed out
    with pytest.raises(ValueError, match="sum to 1"):
        StrategyProfile([[0.5 + 1e-6, 0.5], [0.5, 0.5]])


def test_profile_is_immutable():
    prof = uniform_profile(2, 2)
    with pytest.raises(AttributeError):
        prof.probs = None
    with pytest.raises(ValueError):
        prof.probs[0, 0] = 0.9


def test_profile_replace_swaps_a_single_row():
    prof = uniform_profile(2, 3)
    swapped = prof.replace(1, [1.0, 0.0, 0.0])
    assert np.array_equal(swapped.player(1), [1.0, 0.0, 0.0])
    assert np.array_equal(swapped.player(0), prof.player(0))
    with pytest.raises(ValueError):
        prof.replace(0, [0.9, 0.9, 0.9])


def test_uniform_profile_rows():
    prof = uniform_profile(3, 4)
    assert prof.probs.shape == (3, 4)
    assert np.all(prof.probs == 0.25)


def test_random_profile_respects_floor():
    rng = np.random.default_rng(11)
    prof = random_profile(4, 5, rng, floor=0.02)
    assert prof.probs.min() >= 0.02
    np.testing.assert_allclose(prof.probs.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="floor"):
        random_profile(2, 4, rng, floor=0.25)


@pytest.mark.parametrize("players,actions", [(2, 2), (2, 4), (3, 3), (4, 2)])
def test_expected_payoff_matches_exhaustive_enumeration(players, actions):
    rng = np.random.default_rng(100 + players * 10 + actions)
    game = random_game(players, actions, rng)
    prof = random_profile(players, actions, rng)
    for j in range(players):
        fast = expected_payoff(game, j, prof)
        slow = exhaustive_profile_payoff(game, j, prof)
        assert abs(fast - slow) < 1e-12


def test_payoff_vector_components_are_pure_action_payoffs():
    rng = np.random.default_rng(5)
    game = random_game(3, 3, rng)
    prof = random_profile(3, 3, rng)
    for j in range(3):
        vec = payoff_vector(game, j, prof)
        for i in range(3):
            pure = np.zeros(3)
            pure[i] = 1.0
            assert abs(vec[i] - expected_payoff(game, j, prof.replace(j, pure))) < 1e-12
        # contracting with the player's own mix closes the loop
        assert abs(float(np.dot(prof.player(j), vec)) - expected_payoff(game, j, prof)) < 1e-12


def test_payoff_vector_rows_matches_validated_route():
    rng = np.random.default_rng(6)
    for players, actions in [(2, 3), (3, 2), (4, 3)]:
        game = random_game(players, actions, rng)
        prof = random_profile(players, actions, rng)
        for j in range(players):
            assert np.array_equal(
                payoff_vector_rows(game, j, prof.probs), payoff_vector(game, j, prof)
            )


CONTRACTION_SHAPES = [(2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (5, 2)]


def _exhaustive_payoff_rows(game, prof):
    """Every player's payoff vector, one pure-action profile at a time."""
    m, n = game.num_players, game.num_actions
    rows = np.empty((m, n))
    for j in range(m):
        for i in range(n):
            pure = np.zeros(n)
            pure[i] = 1.0
            rows[j, i] = exhaustive_profile_payoff(game, j, prof.replace(j, pure))
    return rows


@pytest.mark.parametrize("players,actions", CONTRACTION_SHAPES)
def test_all_player_rows_match_exhaustive_enumeration(players, actions):
    rng = np.random.default_rng(300 + players * 10 + actions)
    game = random_game(players, actions, rng)
    prof = random_profile(players, actions, rng)
    rows = payoff_vector_rows(game, None, prof.probs)
    assert rows.shape == (players, actions)
    np.testing.assert_allclose(rows, _exhaustive_payoff_rows(game, prof), rtol=0, atol=1e-12)


@pytest.mark.parametrize("players,actions", CONTRACTION_SHAPES)
def test_single_player_rows_are_rows_of_the_all_player_call(players, actions):
    rng = np.random.default_rng(400 + players * 10 + actions)
    game = random_game(players, actions, rng)
    probs = random_profile(players, actions, rng).probs
    rows = payoff_vector_rows(game, None, probs)
    for j in range(players):
        assert payoff_vector_rows(game, j, probs).tobytes() == rows[j].tobytes()


@pytest.mark.parametrize("players,actions", CONTRACTION_SHAPES)
def test_stacked_profiles_get_the_bits_of_their_own_calls(players, actions):
    rng = np.random.default_rng(450 + players * 10 + actions)
    game = random_game(players, actions, rng)
    stack = rng.dirichlet(np.ones(actions), size=(2, 3, players))
    rows = payoff_vector_rows(game, None, stack)
    assert rows.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert rows[idx].tobytes() == payoff_vector_rows(game, None, stack[idx]).tobytes()
    for j in range(players):
        assert payoff_vector_rows(game, j, stack).tobytes() == rows[..., j, :].tobytes()


@pytest.mark.parametrize("actions", [2, 5])
def test_two_player_rows_keep_the_matrix_vector_products(actions):
    # the shipped configs' trace.csv digests pin exactly these expressions
    rng = np.random.default_rng(500 + actions)
    game = random_game(2, actions, rng)
    probs = random_profile(2, actions, rng).probs
    rows = payoff_vector_rows(game, None, probs)
    assert rows[0].tobytes() == (game.payoffs[0] @ probs[1]).tobytes()
    assert rows[1].tobytes() == (probs[0] @ game.payoffs[1]).tobytes()
    stack = rng.dirichlet(np.ones(actions), size=(7, 2))
    rows = payoff_vector_rows(game, None, stack)
    for s in range(7):
        assert rows[s, 0].tobytes() == (game.payoffs[0] @ stack[s, 1]).tobytes()
        assert rows[s, 1].tobytes() == (stack[s, 0] @ game.payoffs[1]).tobytes()


@pytest.mark.parametrize("players,actions", CONTRACTION_SHAPES)
def test_player_first_layout_is_read_only_and_matches_the_tensors(players, actions):
    game = random_game(players, actions, np.random.default_rng(600 + players))
    layout, opponents = game.player_first, game.opponents
    assert layout.shape == (players, actions, actions ** (players - 1))
    assert opponents.shape == (players, players - 1)
    assert not layout.flags.writeable and not opponents.flags.writeable
    with pytest.raises(ValueError):
        layout[0, 0, 0] = 0.5
    for j in range(players):
        assert list(opponents[j]) == [k for k in range(players) if k != j]
        assert np.array_equal(layout[j], np.moveaxis(game.payoffs[j], j, 0).reshape(actions, -1))


def test_payoff_vector_shape_mismatch():
    game = matching_game(2)
    with pytest.raises(ValueError, match="does not match"):
        payoff_vector(game, 0, uniform_profile(2, 3))


def test_pairwise_matrix_two_player_is_the_raw_tensor():
    rng = np.random.default_rng(7)
    game = random_game(2, 3, rng)
    assert np.array_equal(pairwise_payoff_matrix(game, 0, 1, []), game.payoffs[0])
    assert np.array_equal(pairwise_payoff_matrix(game, 1, 0, []), game.payoffs[1].T)


def test_pairwise_matrix_contracts_the_rest():
    rng = np.random.default_rng(8)
    for players, actions in CONTRACTION_SHAPES:
        game = random_game(players, actions, rng)
        prof = random_profile(players, actions, rng)
        for j, k in itertools.permutations(range(players), 2):
            rest = [r for r in range(players) if r not in (j, k)]
            mat = pairwise_payoff_matrix(game, j, k, [prof.player(r) for r in rest])
            # brute force: every pure profile, weighted by the rest's probabilities
            want = np.zeros((actions, actions))
            for a in itertools.product(range(actions), repeat=players):
                weight = np.prod([prof.probs[r, a[r]] for r in rest])
                want[a[j], a[k]] += weight * game.payoffs[j][a]
            np.testing.assert_allclose(mat, want, rtol=0, atol=1e-12)
            # and it agrees with the payoff vector route
            np.testing.assert_allclose(mat @ prof.player(k), payoff_vector(game, j, prof),
                                       rtol=0, atol=1e-12)


def test_pairwise_matrix_validation():
    game = matching_game(2)
    with pytest.raises(ValueError, match="distinct"):
        pairwise_payoff_matrix(game, 0, 0, [])
    with pytest.raises(ValueError, match="expected 0 remaining"):
        pairwise_payoff_matrix(game, 0, 1, [np.array([0.5, 0.5])])


def test_matching_game_rewards_coordination():
    g = matching_game(2)
    both_first = StrategyProfile([[1.0, 0.0], [1.0, 0.0]])
    mismatch = StrategyProfile([[1.0, 0.0], [0.0, 1.0]])
    assert expected_payoff(g, 0, both_first) == 1.0
    assert expected_payoff(g, 1, both_first) == 1.0
    assert expected_payoff(g, 0, mismatch) == 0.0
    assert expected_payoff(g, 0, uniform_profile(2, 2)) == pytest.approx(0.5)


def test_random_game_entries_in_range():
    rng = np.random.default_rng(9)
    g = random_game(3, 4, rng)
    for t in g.payoffs:
        assert t.shape == (4, 4, 4)
        assert t.min() >= 0.0 and t.max() <= 1.0


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    game = random_game(3, 3, rng)
    path = tmp_path / "game.json"
    save_game(game, path)
    back = load_game(path)
    for a, b in zip(game.payoffs, back.payoffs):
        assert np.array_equal(a, b)


def test_load_game_rejects_unknown_fields(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": 2, "actions": 2, "payoffs": [[0.5] * 4] * 2,
                                "player": 3}))
    with pytest.raises(ValueError, match="unknown game file field 'player'"):
        load_game(path)


@pytest.mark.parametrize("entry", [True, "1", None, [1.0], {}, 1, 0.25])
def test_load_game_reads_each_payoff_entry_as_a_number(entry, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": 2, "actions": 2,
                                "payoffs": [[0.5] * 4, [0.5, 0.5, entry, 0.5]]}))
    if type(entry) in (int, float):
        assert load_game(path).payoffs[1][1, 0] == entry
        return
    with pytest.raises(ValueError, match=re.escape("player 1 payoff table: ")):
        load_game(path)


def test_load_game_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="JSON object"):
        load_game(path)

    path.write_text(json.dumps({"players": 2, "actions": 2}))
    with pytest.raises(ValueError, match="missing or malformed"):
        load_game(path)

    path.write_text(json.dumps({"players": 2, "actions": 2, "payoffs": [[0.5] * 4]}))
    with pytest.raises(ValueError, match="per-player"):
        load_game(path)

    for key, bad in (("players", 2.7), ("actions", 2.9), ("players", "2")):
        path.write_text(json.dumps({"players": 2, "actions": 2, "payoffs": [[0.5] * 4] * 2,
                                    key: bad}))
        with pytest.raises(ValueError, match=re.escape(
                f"game file missing or malformed field: {key}: expected an integer, got {bad!r}")):
            load_game(path)

    path.write_text(json.dumps({"players": 2, "actions": 2,
                                "payoffs": [[0.5] * 3, [0.5] * 4]}))
    with pytest.raises(ValueError, match="entries"):
        load_game(path)
