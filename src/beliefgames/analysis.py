"""Equilibrium residuals, fixed points, and stability diagnostics.

The central object is the smooth game built from a game plus per-player
marginal families: each player's payoff is their expected payoff plus the
concave perturbation value of their own mix.  This module measures how far a
profile is from the game's quantal-response fixed point, finds that fixed
point by damped iteration, and checks the curvature-versus-coupling condition
that makes it unique and stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import MarginalFamily
from .games import (Game, StrategyProfile, _check_pair, _check_simplex_rows, payoff_vector_rows,
                    uniform_profile)
from .response import response_operator

#: resolution of the probability grid behind the ``curvature_grid`` cross-check;
#: endpoints stay strictly inside (0, 1).
CURVATURE_GRID = 10_000
_GRID_EDGE = 1e-9


def _check_families(game: Game, fams) -> tuple:
    fams = tuple(fams)
    if len(fams) != game.num_players:
        raise ValueError(f"need one family per player ({game.num_players})")
    for fam in fams:
        if not isinstance(fam, MarginalFamily):
            raise ValueError("families must be MarginalFamily instances")
        if fam.n_actions != game.num_actions:
            raise ValueError("family action count does not match the game")
    return fams


def _residuals(game: Game, probs: np.ndarray, respond) -> np.ndarray:
    """Residual of every profile of a ``(..., M, N)`` stack: one contraction, one
    call of the bound ``respond`` operator."""
    targets = respond(payoff_vector_rows(game, None, probs))
    return np.abs(probs - targets).max(axis=(-2, -1))


def equilibrium_residual(game: Game, profile: StrategyProfile, fams) -> float:
    """Sup-norm gap between each player's mix and their quantal response.

    Zero exactly at a fixed point of the response map; continuous in the
    profile, so it doubles as a convergence measure for dynamics and solvers.
    """
    fams = _check_families(game, fams)
    _check_pair(game, profile)
    return float(_residuals(game, profile.probs, response_operator(fams)))


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of the damped response iteration."""

    profile: StrategyProfile
    converged: bool
    iterations: int
    movement: float
    residual: float


def fixed_point_iterate(game: Game, fams, damping: float = 0.5, tol: float = 1e-10,
                        max_iter: int = 10_000, start: StrategyProfile | None = None) -> FixedPointResult:
    """Iterate P <- (1 - damping) P + damping * response(P) to a fixed point.

    Starts from the uniform profile unless ``start`` is given.  Stops when the
    per-iteration sup-norm movement drops to ``tol``; reports (rather than
    raises on) non-convergence after ``max_iter`` sweeps.
    """
    fams = _check_families(game, fams)
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    current = (uniform_profile(game.num_players, game.num_actions) if start is None else start)
    _check_pair(game, current)
    respond = response_operator(fams)
    probs = current.probs.copy()
    movement = np.inf
    iterations = 0
    # each sweep's rows are a convex mix of simplex rows: no profile to validate
    for iterations in range(1, max_iter + 1):
        targets = respond(payoff_vector_rows(game, None, probs))
        new = (1.0 - damping) * probs + damping * targets
        movement = float(np.abs(new - probs).max())
        probs = new
        if movement <= tol:
            break
    return FixedPointResult(
        profile=StrategyProfile(probs),
        converged=movement <= tol,
        iterations=iterations,
        movement=movement,
        residual=float(_residuals(game, probs, respond)),
    )


def residual_series(game: Game, trace, fams) -> np.ndarray:
    """Equilibrium residual at every recorded round of a dynamics trace, in one
    call on its ``(R, M, N)`` profiles, each with its own residual's bits."""
    fams = _check_families(game, fams)
    probs = np.asarray(trace.probabilities, dtype=float)
    want = (game.num_players, game.num_actions)
    if probs.ndim != 3 or probs.shape[1:] != want:
        raise ValueError(f"trace records have shape {probs.shape[1:]}, the game needs {want}")
    _check_simplex_rows(probs)
    return _residuals(game, probs, response_operator(fams))


# ---------------------------------------------------------------------------
# Hessian of the smooth game
# ---------------------------------------------------------------------------

def hessian_blocks(game: Game, profile: StrategyProfile, fams) -> np.ndarray:
    """(M, M, N, N) second-derivative blocks of the smooth game at ``profile``.

    Diagonal blocks come from the regularizer: -1 / density at the quantile,
    per action.  Off-diagonal blocks are the symmetrized cross-payoff
    matrices, with the remaining players held at their ``profile`` mixes.
    Raises when a zero-probability action meets an unbounded quantile.
    """
    fams = _check_families(game, fams)
    m, n = game.num_players, game.num_actions
    # profile (k, i') puts player k at action i': its payoff row j is column i' of A_jk
    profiles = np.tile(profile.probs, (m, n, 1, 1))
    profiles[np.arange(m), :, np.arange(m)] = np.eye(n)
    cross = payoff_vector_rows(game, None, profiles).transpose(2, 0, 3, 1)
    blocks = 0.5 * (cross + cross.transpose(1, 0, 3, 2))
    for j in range(m):
        blocks[j, j] = np.diag(-1.0 / fams[j].density_vector(profile.player(j)))
    return blocks


def assemble_hessian(blocks: np.ndarray) -> np.ndarray:
    """Flatten (M, M, N, N) blocks into the full (M N, M N) matrix."""
    blocks = np.asarray(blocks, dtype=float)
    m, n = blocks.shape[0], blocks.shape[2]
    return blocks.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def game_hessian(game: Game, profile: StrategyProfile, fams) -> np.ndarray:
    """Full (M N, M N) symmetric Hessian assembled from :func:`hessian_blocks`."""
    return assemble_hessian(hessian_blocks(game, profile, fams))


# ---------------------------------------------------------------------------
# Stability condition: regularizer curvature vs. payoff coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlayerStability:
    """One player's side of the stability comparison.

    ``curvature`` is the regularization strength actually compared against
    ``coupling``: the family's closed form, 0.0 when its density is unbounded,
    which never passes.  ``curvature_grid`` reads the same quantity off a
    p-grid, as an independent cross-check only.  The ``curvature_conservative``
    variant, 1 / lipschitz_constant, uses the worst action instead of the best
    one; ``readings_differ`` flags families where the two disagree, in which
    case the conservative value is the safer margin.
    """

    player: int
    curvature: float
    curvature_grid: float
    curvature_conservative: float
    readings_differ: bool
    coupling: float
    passed: bool


@dataclass(frozen=True)
class StabilityReport:
    """Stability check outcome, per player plus whole-game diagnostics.

    The whole-game Hessian flags are evaluated at the uniform profile (any
    interior profile works; uniform is deterministic and always valid).
    """

    players: tuple
    all_passed: bool
    diag_dominant: bool
    negdef_on_tangent: bool

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "diag_dominant": self.diag_dominant,
            "negdef_on_tangent": self.negdef_on_tangent,
            "players": [vars(p) | {} for p in self.players],
        }


def _curvature_grid(fam: MarginalFamily) -> float:
    """Grid infimum of 1 / (best-action density at the quantile) over p."""
    p = np.linspace(_GRID_EDGE, 1.0 - _GRID_EDGE, CURVATURE_GRID)
    dens = fam.density_vector(np.repeat(p[:, None], fam.n_actions, axis=1))
    return float(1.0 / dens.min(axis=1).max())


def coupling_bound(game: Game, player: int) -> float:
    """Max over opponents' pure profiles of the symmetrized cross-payoff norms.

    For each other player k this maximizes ||A_jk + A_kj^T|| over pure actions
    of the remaining players (the entries are multilinear in those mixes, and
    the norm is convex, so pure profiles attain the maximum); the bounds are
    then summed over k.  At payoffs in [0, 1] the result is at most N (M - 1).
    Those A_jk + A_kj^T are slices of the payoff tensors with axes j and k
    moved last, so one batched call takes all N^(M-2) spectral norms.  Each
    pair is taken in its lower-numbered player's orientation, so both players
    of a pair read the same bits (a transpose's norm can differ in the last
    place).
    """
    m, n = game.num_players, game.num_actions
    total = 0.0
    for k in range(m):
        if k == player:
            continue
        pair = (min(player, k), max(player, k))
        cross = sum(np.moveaxis(game.payoffs[r], pair, (-2, -1)) for r in pair)
        total += 0.5 * float(np.linalg.norm(cross.reshape(-1, n, n), 2, axis=(-2, -1)).max())
    return total


def stability_check(game: Game, fams) -> StabilityReport:
    """Compare each player's regularization curvature against payoff coupling.

    A player passes when curvature strictly exceeds the coupling bound; all
    players passing implies a unique, dynamically stable equilibrium.  The
    report carries block-diagonal dominance and tangent-space negative
    definiteness of the Hessian at the uniform profile as corroborating
    diagnostics.
    """
    fams = _check_families(game, fams)
    players = []
    for j, fam in enumerate(fams):
        curvature = float(fam.curvature_scale())
        conservative = 1.0 / float(fam.lipschitz_constant())
        coupling = coupling_bound(game, j)
        players.append(PlayerStability(
            player=j,
            curvature=curvature,
            curvature_grid=_curvature_grid(fam),
            curvature_conservative=conservative,
            readings_differ=abs(curvature - conservative) > 1e-9 * max(1.0, abs(curvature)),
            coupling=coupling,
            passed=bool(curvature > coupling),
        ))
    blocks = hessian_blocks(game, uniform_profile(game.num_players, game.num_actions), fams)
    return StabilityReport(
        players=tuple(players),
        all_passed=all(p.passed for p in players),
        diag_dominant=diagonal_dominance_check(blocks),
        negdef_on_tangent=negdef_on_tangent_check(
            assemble_hessian(blocks), n_players=game.num_players
        ),
    )


def diagonal_dominance_check(blocks: np.ndarray) -> bool:
    """Block diagonal dominance of an (M, M, N, N) block matrix.

    True iff for every player the smallest diagonal magnitude of their own
    block strictly exceeds the summed operator norms of their off-diagonal
    row.  Non-diagonal or singular own-blocks fail.
    """
    blocks = np.asarray(blocks, dtype=float)
    m = blocks.shape[0]
    for j in range(m):
        own = blocks[j, j]
        if not np.allclose(own, np.diag(np.diagonal(own)), atol=1e-12):
            return False
        floor = float(np.abs(np.diagonal(own)).min())
        if floor == 0.0 or not np.isfinite(floor):
            return False
        off = sum(float(np.linalg.norm(blocks[j, k], 2)) for k in range(m) if k != j)
        if not floor > off:
            return False
    return True


def _tangent_basis(n_players: int, n_actions: int) -> np.ndarray:
    """Orthonormal basis of the product-of-simplices tangent space.

    Block diagonal with one Helmert-style zero-sum basis per player; shape
    (M N, M (N - 1)).
    """
    n = n_actions
    helmert = np.zeros((n, n - 1))
    for k in range(1, n):
        helmert[:k, k - 1] = 1.0
        helmert[k, k - 1] = -float(k)
        helmert[:, k - 1] /= np.sqrt(k * (k + 1.0))
    basis = np.zeros((n_players * n, n_players * (n - 1)))
    for j in range(n_players):
        basis[j * n:(j + 1) * n, j * (n - 1):(j + 1) * (n - 1)] = helmert
    return basis


def negdef_on_tangent_check(hessian: np.ndarray, n_players: int, tol: float = 1e-9) -> bool:
    """Negative definiteness of a full Hessian on the tangent space.

    Splits the dimension into ``n_players`` equal action blocks, projects onto
    the per-player zero-sum subspace and checks that the largest eigenvalue is
    below ``-tol``.
    """
    h = np.asarray(hessian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hessian must be square")
    dim = h.shape[0]
    if dim % n_players != 0 or dim // n_players < 2:
        raise ValueError(f"dimension {dim} does not split into {n_players} players")
    basis = _tangent_basis(n_players, dim // n_players)
    projected = basis.T @ h @ basis
    top = float(np.linalg.eigvalsh(projected).max())
    return top < -tol


@dataclass(frozen=True)
class VariationalProbe:
    """Sampled check of the variational stability inequality.

    ``worst_value`` is the largest sampled inner product between the payoff
    gradient field and the direction toward the candidate equilibrium; it
    must be negative, and ``min_margin = -worst_value``.  ``violations``
    counts samples at which the inequality failed.
    """

    worst_value: float
    min_margin: float
    violations: int
    samples: int


def variational_stability_probe(game: Game, profile: StrategyProfile, fams,
                                n_samples: int = 10_000, seed: int = 0,
                                floor: float = 1e-6) -> VariationalProbe:
    """Sample interior profiles P and evaluate sum_j <grad_j(P), p_j - p*_j>.

    ``profile`` plays the role of the candidate equilibrium p*.  Sampled
    profiles are Dirichlet draws pushed ``floor`` away from the boundary so
    that gradients stay finite.
    """
    fams = _check_families(game, fams)
    _check_pair(game, profile)
    if n_samples < 1:
        raise ValueError("the probe needs at least one sample")
    m, n = game.num_players, game.num_actions
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=(n_samples, m))
    rows = rows * (1.0 - n * floor) + floor
    # the smooth-payoff gradients of every sample (see smooth_payoff_gradient)
    grads = payoff_vector_rows(game, None, rows)
    for j, fam in enumerate(fams):
        grads[:, j] += fam.quantile_vector(1.0 - rows[:, j])
    if not np.all(np.isfinite(grads)):
        raise ValueError("gradient is infinite at a sampled profile; raise the floor")
    step = rows - profile.probs
    values = np.vecdot(grads, step).sum(axis=-1)
    values = values[np.abs(step).max(axis=(-2, -1)) >= 1e-12]  # samples at p* carry no test
    worst = float(values.max()) if values.size else -np.inf
    return VariationalProbe(
        worst_value=worst,
        min_margin=-worst,
        violations=int(np.count_nonzero(values >= 0.0)),
        samples=n_samples,
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Lipschitz constant of the CDFs and a sampled strong-concavity check.

    ``modulus`` is 1 / lipschitz_constant: the strong-concavity constant of
    the response objective guaranteed by that CDF slope bound.  An unbounded
    slope gives ``modulus`` 0.0, ``verified`` False and no trials, so
    ``worst_slack`` is NaN.
    """

    lipschitz_constant: float
    modulus: float
    verified: bool
    worst_slack: float


def strong_concavity_check(fam: MarginalFamily, n_trials: int = 500,
                           seed: int = 0) -> ConcavityReport:
    """Estimate the CDF Lipschitz constant and verify induced strong concavity.

    The objective g(p) = p . u + h(p) must satisfy the interpolation bound
    g(a p + (1-a) q) >= a g(p) + (1-a) g(q)
                        + (1 / (2 L)) a (1-a) ||p - q||^2 - 1e-9
    for random u in [0, 1]^N, simplex points p, q, and a in (0, 1).  A family
    whose CDF slope is unbounded is reported as not strongly concave.
    """
    if n_trials < 1:
        raise ValueError("the concavity check needs at least one trial")
    lipschitz = float(fam.lipschitz_constant())
    if not lipschitz > 0.0:
        raise ValueError("family has no positive CDF slope bound")
    if lipschitz == np.inf:
        return ConcavityReport(lipschitz_constant=lipschitz, modulus=0.0, verified=False,
                               worst_slack=np.nan)
    modulus = 1.0 / lipschitz
    rng = np.random.default_rng(seed)
    n = fam.n_actions
    worst = np.inf
    ok = True
    for _ in range(n_trials):
        u = rng.random(n)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        alpha = rng.uniform(0.05, 0.95)
        mix = alpha * p + (1.0 - alpha) * q

        def g(x):
            return float(np.dot(x, u)) + fam.regularizer_terms(x)

        slack = g(mix) - (
            alpha * g(p) + (1.0 - alpha) * g(q)
            + 0.5 * modulus * alpha * (1.0 - alpha) * float(np.sum((p - q) ** 2))
        )
        worst = min(worst, slack)
        if slack < -1e-9:
            ok = False
    return ConcavityReport(
        lipschitz_constant=lipschitz,
        modulus=float(modulus),
        verified=ok,
        worst_slack=float(worst),
    )
