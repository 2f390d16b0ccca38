"""Finite normal-form games and their mixed extensions.

A game is one dense payoff tensor per player, each of shape ``(N,) * M``
(M players, N actions, payoffs in [0, 1]).  Entry ``payoffs[j][a_1, ..., a_M]``
is player j's payoff at the pure action profile ``(a_1, ..., a_M)``.  Expected
payoffs under mixed play are multilinear contractions of these tensors;
everything downstream (responses, dynamics, stability checks) is built on them.

A game also keeps its tensors in a *player-first layout*: one ``(M, N,
N^(M-1))`` array whose row j is player j's tensor with their own axis first
and the opponents' axes flattened in ascending player order.  With it,
:func:`payoff_vector_rows` computes every player's payoff vector at once: one
outer product of the opponents' strategies per player, built for all players
together, then one batched matrix-vector product.  The per-player routines
(:func:`payoff_vector`, :func:`expected_payoff`) are views of that one
computation, and so is :func:`pairwise_payoff_matrix`.  Leading axes of the
strategy rows are batch axes: a stack of profiles takes one call.
"""

from __future__ import annotations

import json

import numpy as np

#: tolerance for "sums to one" checks on probability vectors.  Vectors further
#: from the simplex than this are rejected rather than renormalized, so that
#: upstream bugs surface instead of being silently washed out.
SIMPLEX_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class Game:
    """Immutable M-player, N-action game.

    Parameters
    ----------
    payoffs : sequence of array_like
        One tensor per player, each of shape ``(N,) * M`` with every entry in
        [0, 1].  Player axes are ordered: axis m indexes player m+1's action.

    Attributes
    ----------
    payoffs : tuple of ndarray
        The read-only tensors.
    player_first : ndarray
        Read-only ``(M, N, N^(M-1))`` layout: row j is ``payoffs[j]`` with
        axis j moved to the front and the other axes flattened in order.
    opponents : ndarray
        Read-only ``(M, M-1)`` table; row j lists the players other than j
        in ascending order, matching the flattened axes of ``player_first[j]``.
    """

    __slots__ = ("payoffs", "player_first", "opponents")

    def __init__(self, payoffs) -> None:
        tensors = tuple(_readonly(t) for t in payoffs)
        if len(tensors) < 2:
            raise ValueError("a game needs at least two players")
        m = len(tensors)
        n = tensors[0].shape[0] if tensors[0].ndim else 0
        want = (n,) * m
        for j, t in enumerate(tensors):
            if t.shape != want:
                raise ValueError(
                    f"player {j} payoff tensor has shape {t.shape}, expected {want}"
                )
            if not np.all(np.isfinite(t)):
                raise ValueError(f"player {j} payoff tensor has non-finite entries")
            if t.min() < 0.0 or t.max() > 1.0:
                raise ValueError(f"player {j} payoffs must lie in [0, 1]")
        if n < 2:
            raise ValueError("each player needs at least two actions")
        player_first = np.stack([np.moveaxis(t, j, 0).reshape(n, -1)
                                 for j, t in enumerate(tensors)])
        player_first.setflags(write=False)
        opponents = np.array([[k for k in range(m) if k != j] for j in range(m)])
        opponents.setflags(write=False)
        object.__setattr__(self, "payoffs", tensors)
        object.__setattr__(self, "player_first", player_first)
        object.__setattr__(self, "opponents", opponents)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Game is immutable")

    @property
    def num_players(self) -> int:
        return len(self.payoffs)

    @property
    def num_actions(self) -> int:
        return self.payoffs[0].shape[0]

    def __repr__(self) -> str:
        return f"Game(players={self.num_players}, actions={self.num_actions})"


class StrategyProfile:
    """One mixed strategy per player, stored as a read-only (M, N) array.

    Each row must be a probability vector: nonnegative entries summing to one
    within ``SIMPLEX_TOL``.  Off-simplex rows raise rather than being
    renormalized.
    """

    __slots__ = ("probs",)

    def __init__(self, strategies) -> None:
        arr = np.array(strategies, dtype=float)
        if arr.ndim != 2:
            raise ValueError("a profile is a 2-D array: one row per player")
        _check_simplex_rows(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("StrategyProfile is immutable")

    @property
    def num_players(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]

    def player(self, j: int) -> np.ndarray:
        return self.probs[j]

    def replace(self, j: int, strategy) -> "StrategyProfile":
        """New profile with player j's row swapped out."""
        rows = self.probs.copy()
        rows[j] = np.asarray(strategy, dtype=float)
        return StrategyProfile(rows)

    def __repr__(self) -> str:
        return f"StrategyProfile({self.probs.tolist()})"


def _check_simplex_rows(rows, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """``rows`` as a float array, once every row along its last axis is on the
    simplex: finite, nonnegative entries that sum to one within ``tol``."""
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("strategy entries must be finite")
    if arr.min() < 0.0:
        raise ValueError("strategy entries must be nonnegative")
    gap = np.abs(arr.sum(axis=-1) - 1.0).max()
    if gap > tol:
        raise ValueError(f"strategy rows must sum to 1 within {tol:g} to lie on "
                         f"the simplex (off by {gap:.3g})")
    return arr


def _check_produced_rows(rows, tol: float) -> np.ndarray:
    """:func:`_check_simplex_rows` by the rule the package's solvers accept a
    response by: entries in [0, 1], and sums within ``tol`` of one.

    For rows the package produced, such as a trace's records: a response at
    payoffs far from zero can miss one by more than ``SIMPLEX_TOL``, the rule
    that a user's rows keep.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.max() > 1.0:
        raise ValueError("strategy entries must lie in [0, 1]")
    return _check_simplex_rows(arr, tol)


def _produced_profile(rows, tol: float) -> StrategyProfile:
    """A read-only profile of ``(M, N)`` rows the package produced, with their
    bits, checked by :func:`_check_produced_rows` at ``tol``."""
    arr = _check_produced_rows(np.array(rows, dtype=float), tol)
    arr.setflags(write=False)
    profile = object.__new__(StrategyProfile)
    object.__setattr__(profile, "probs", arr)
    return profile


def uniform_profile(num_players: int, num_actions: int) -> StrategyProfile:
    """Every player mixes uniformly over their actions."""
    return StrategyProfile(np.full((num_players, num_actions), 1.0 / num_actions))


def random_profile(num_players: int, num_actions: int, rng, floor: float = 0.0) -> StrategyProfile:
    """Draw each row from the flat Dirichlet, optionally pushed off the boundary.

    With ``floor`` > 0 every component is at least ``floor`` (rows are mixed
    with the uniform vector, which keeps them on the simplex).
    """
    rows = rng.dirichlet(np.ones(num_actions), size=num_players)
    if floor > 0.0:
        if floor >= 1.0 / num_actions:
            raise ValueError("floor must be below 1/N")
        rows = rows * (1.0 - num_actions * floor) + floor
    return StrategyProfile(rows)


def _check_pair(game: Game, profile: StrategyProfile) -> None:
    if profile.num_players != game.num_players or profile.num_actions != game.num_actions:
        raise ValueError(
            f"profile shape {profile.probs.shape} does not match game "
            f"({game.num_players} players, {game.num_actions} actions)"
        )


def expected_payoff(game: Game, player: int, profile: StrategyProfile) -> float:
    """Expected payoff of ``player`` when everyone mixes as in ``profile``.

    The player's own mix contracted with their payoff vector
    (:func:`payoff_vector_rows`).
    """
    _check_pair(game, profile)
    return float(profile.probs[player] @ payoff_vector_rows(game, player, profile.probs))


def payoff_vector_rows(game: Game, player: int | None, rows: np.ndarray) -> np.ndarray:
    """:func:`payoff_vector` against a raw ``(..., M, N)`` stack of strategy rows.

    Skips profile validation, so hot loops can call it every round and
    validate on their own cadence.  Each ``(M, N)`` profile of the stack gets
    the bits of its own call.  ``player=None`` returns every player's payoff
    vector, ``(..., M, N)``; an int ``player`` returns that row of the same
    computation, so the two calls agree bit for bit.

    Two-player games take ``T0 @ p1`` and ``p0 @ T1``, as ``np.matvec`` and
    ``np.vecmat``, which keep those bits on stacks.  Larger games contract the
    player-first layout (:class:`Game`): the opponents' strategies of every
    player are multiplied into one ``(..., M, N^(M-1))`` array of outer
    products, M - 2 broadcast multiplies in all, and one batched
    matrix-vector product against the layout gives all M rows.
    """
    m = game.num_players
    if m == 2:
        out = np.empty(rows.shape)
        np.matvec(game.payoffs[0], rows[..., 1, :], out=out[..., 0, :])
        np.vecmat(rows[..., 0, :], game.payoffs[1], out=out[..., 1, :])
    else:
        lead = rows.shape[:-2]
        opponent_rows = rows[..., game.opponents, :]  # (..., M, M-1, N)
        outer = opponent_rows[..., 0, :]
        for s in range(1, m - 1):
            outer = (outer[..., :, None] * opponent_rows[..., s, None, :]).reshape(*lead, m, -1)
        out = np.matmul(game.player_first, outer[..., None]).reshape(rows.shape)
    return out if player is None else out[..., player, :]


def payoff_vector(game: Game, player: int, profile: StrategyProfile) -> np.ndarray:
    """Expected payoff of each pure action of ``player`` against the others.

    Component i is player ``player``'s expected payoff when they play action i
    and every other player mixes as in ``profile`` (the player's own row is
    ignored).  Returns a length-N vector.
    """
    _check_pair(game, profile)
    return payoff_vector_rows(game, player, profile.probs)


def pairwise_payoff_matrix(game: Game, player: int, other: int, rest) -> np.ndarray:
    """Payoff matrix of ``player`` across their and ``other``'s pure actions.

    Entry (i, i') is ``player``'s expected payoff when they play i, ``other``
    plays i', and the remaining players mix according to ``rest`` (their
    strategies in ascending player order).  For two-player games ``rest`` is
    empty and this is just the raw tensor (transposed when player > other).
    Column i' is :func:`payoff_vector_rows` with ``other`` at pure action i'.
    """
    if player == other:
        raise ValueError("pairwise matrix needs two distinct players")
    m, n = game.num_players, game.num_actions
    rest = [np.asarray(r, dtype=float) for r in rest]
    if len(rest) != m - 2:
        raise ValueError(f"expected {m - 2} remaining strategies, got {len(rest)}")
    others = [k for k in range(m) if k != player and k != other]
    profiles = np.zeros((n, m, n))
    for k, s in zip(others, rest):
        if s.shape != (n,):
            raise ValueError(f"strategy for player {k} has wrong length")
        profiles[:, k] = s
    profiles[:, other] = np.eye(n)
    return payoff_vector_rows(game, player, profiles).T


def matching_game(num_actions: int = 2) -> Game:
    """Two-player coordination game: both earn 1 when their actions match."""
    eye = np.eye(num_actions)
    return Game([eye, eye])


def random_game(num_players: int, num_actions: int, rng) -> Game:
    """Game with independent uniform [0, 1] payoff entries."""
    shape = (num_actions,) * num_players
    return Game([rng.random(shape) for _ in range(num_players)])


def save_game(game: Game, path) -> None:
    """Write a game as JSON: player/action counts plus flat payoff lists.

    Flattening is row-major over the action profile (the last player's action
    varies fastest).
    """
    doc = {
        "players": game.num_players,
        "actions": game.num_actions,
        "payoffs": [t.ravel().tolist() for t in game.payoffs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field(doc: dict, key: str, kind, default=None, label: str | None = None):
    """``kind(doc[key])``, or of ``default`` when the key is absent and a default
    is given; a value ``kind`` rejects is an error naming the field.

    The one rule the game, family, schedule and config parsers read their
    scalar fields by, with ``kind`` :func:`_integer` or :func:`_real`.
    """
    value = doc[key] if default is None else doc.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label or key}: {exc}") from exc


def _known_fields(doc: dict, known, label: str) -> None:
    """Reject the first key of ``doc`` outside ``known`` with an error naming it,
    so that a misspelled optional field fails instead of taking its default."""
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {label} {key!r}")


def _integer(value) -> int:
    """``int(value)`` for an integral number; a bool, a string or a fractional float is an error."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``float(value)`` for a number; a bool or a string is an error."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _reals(value) -> np.ndarray:
    """A number or nested lists of numbers as a float array, each entry read by
    :func:`_real`, so a bool or a string anywhere in it is an error."""
    def read(v):
        return [read(x) for x in v] if isinstance(v, list) else _real(v)
    return np.array(read(value), dtype=float)


def load_game(path) -> Game:
    """Inverse of :func:`save_game`; raises ValueError on malformed input."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("game file must hold a JSON object")
    _known_fields(doc, ("players", "actions", "payoffs"), "game file field")
    try:
        m = _field(doc, "players", _integer)
        n = _field(doc, "actions", _integer)
        flat = doc["payoffs"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"game file missing or malformed field: {exc}") from exc
    if m < 2 or n < 2:
        raise ValueError("need at least two players and two actions")
    if not isinstance(flat, list) or len(flat) != m:
        raise ValueError(f"'payoffs' must list {m} per-player tables")
    tensors = []
    for j, entries in enumerate(flat):
        arr = _field(flat, j, _reals, label=f"player {j} payoff table")
        if arr.shape != (n**m,):
            raise ValueError(
                f"player {j} payoff table has {arr.size} entries, expected {n**m}"
            )
        tensors.append(arr.reshape((n,) * m))
    return Game(tensors)
