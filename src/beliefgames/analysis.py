"""Equilibrium residuals, fixed points, and stability diagnostics.

The central object is the smooth game built from a game plus per-player
marginal families: each player's payoff is their expected payoff plus the
concave perturbation value of their own mix.  This module measures how far a
profile is from the game's quantal-response fixed point, finds that fixed
point by guarded Newton steps, and checks the curvature-versus-coupling condition
that makes it unique and stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import MarginalFamily
from .games import (Game, StrategyProfile, _check_pair, _check_produced_rows, payoff_vector_rows,
                    uniform_profile)
from .response import _RESPONSE_TOL, _family_groups, response_operator

#: resolution of the probability grid behind the ``curvature_grid`` cross-check;
#: endpoints stay strictly inside (0, 1).
CURVATURE_GRID = 10_000
_GRID_EDGE = 1e-9
#: a concavity trial passes when its slack is above minus this many ulps of the
#: largest magnitude it compares (see :func:`strong_concavity_check`)
_CONCAVITY_ULPS = 64.0
_EPS = np.finfo(float).eps


def _check_families(game: Game, fams) -> tuple:
    fams = tuple(fams)
    if len(fams) != game.num_players:
        raise ValueError(f"need one family per player: {len(fams)} for {game.num_players} players")
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
    """Outcome of the guarded Newton iteration on the response map.

    ``iterations`` counts the accepted Newton steps and the damped sweeps
    taken in their place (0 for a start that already is a fixed point);
    ``movement`` is the sup-norm size of the last one, 0.0 when none was
    taken; ``residual`` is the returned profile's :func:`equilibrium_residual`.
    """

    profile: StrategyProfile
    converged: bool
    iterations: int
    movement: float
    residual: float


def fixed_point_iterate(game: Game, fams, damping: float = 0.5, tol: float = 1e-10,
                        max_iter: int = 10_000, start: StrategyProfile | None = None) -> FixedPointResult:
    """Find a root of G(P) = P - R(U(P)) by guarded Newton steps.

    R is the families' quantal response and U every player's payoff vector.
    Each iteration solves (I - D C) delta = R(U(P)) - P, clips P + delta at 0
    and renormalizes each row.  C holds the cross-payoff blocks and D the
    response Jacobians at R(U(P)): D_j = diag(f) - f f^T / sum f, with f the
    density at the response's quantiles, 0 on actions whose response is 0 (the
    softmax or sparsemax Jacobian, or the implicit derivative of the KKT system
    u_i + F_i^{-1}(1 - p_i) = kappa).  The step is kept only when it strictly
    lowers the sup-norm residual |P - R(U(P))|; otherwise, and whenever the
    system or the step is singular or not finite (f f^T can overflow, silently),
    the iteration takes the damped sweep P <- (1 - damping) P + damping R(U(P))
    instead.  Starts from the uniform rows unless ``start`` is given.  Stops
    once the residual is at most ``tol``; reports (rather than raises on)
    non-convergence after ``max_iter`` iterations.

    A call binds what its steps reuse: the response operator, each family group's
    density kernel, the buffers, the cross blocks' profile stack, and for two
    players the blocks, which do not depend on P.
    """
    fams = _check_families(game, fams)
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    m, n = game.num_players, game.num_actions
    if start is not None:
        _check_pair(game, start)
    probs = np.full((m, n), 1.0 / n) if start is None else start.probs
    respond = response_operator(fams)
    densities = [(fam._density, index) for fam, _, index in _family_groups(fams)]
    blocks = _cross_blocks(game)
    fixed = blocks(probs) if m == 2 else None  # a two-player game's blocks at every P
    eye, total = np.eye(n), np.empty(m)
    diag, outer, prod = np.empty((m, n, n)), np.empty((m, n, n)), np.empty((m, m, n, n))
    identity, system = np.eye(m * n).reshape(m, n, m, n), np.empty((m * n, m * n))

    def evaluate(probs):
        targets = respond(payoff_vector_rows(game, None, probs))
        return targets, float(np.maximum.reduce(np.abs(probs - targets), axis=None))

    def newton_step(probs, targets):  # None when the system or the step is singular or not finite
        cross = fixed if fixed is not None else blocks(probs)
        inside = targets > 0.0
        f = np.where(inside, targets, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for density, index in densities:
                f[index] = density(f[index])
            f = np.where(inside, f, 0.0)
            np.add.reduce(f, axis=-1, out=total)
            np.multiply(f[..., None], eye, out=diag)
            np.multiply(f[..., :, None], f[..., None, :], out=outer)
            np.divide(outer, total[:, None, None], out=outer)
            np.matmul(np.subtract(diag, outer, out=diag)[:, None], cross, out=prod)
        np.subtract(identity, prod.transpose(0, 2, 1, 3), out=system.reshape(m, n, m, n))
        if not np.isfinite(system).all():
            return None
        try:
            delta = np.linalg.solve(system, (targets - probs).ravel())
        except np.linalg.LinAlgError:
            return None
        new = np.maximum(probs + delta.reshape(m, n), 0.0)
        totals = new.sum(axis=-1, keepdims=True)
        if not (np.isfinite(new).all() and (totals > 0.0).all()):
            return None
        return new / totals

    targets, residual = evaluate(probs)
    movement, iterations = 0.0, 0
    # Newton's rows are renormalized and a sweep mixes simplex rows: nothing to validate
    while residual > tol and iterations < max_iter:
        iterations += 1
        new = newton_step(probs, targets)
        if new is not None:
            new_targets, new_residual = evaluate(new)
        if new is None or not new_residual < residual:
            new = (1.0 - damping) * probs + damping * targets
            new_targets, new_residual = evaluate(new)
        movement = float(np.maximum.reduce(np.abs(new - probs), axis=None))
        probs, targets, residual = new, new_targets, new_residual
    return FixedPointResult(profile=StrategyProfile(probs), converged=residual <= tol,
                            iterations=iterations, movement=movement, residual=residual)


def residual_series(game: Game, trace, fams) -> np.ndarray:
    """Equilibrium residual at every recorded round of a dynamics trace, in one
    call on its ``(R, M, N)`` profiles, each with its own residual's bits.

    The records are checked by the rule the round loop checks its responses
    by (entries in [0, 1], sums within 1e-9 of one), not a user profile's
    1e-12, which a run at payoffs far from zero can miss."""
    fams = _check_families(game, fams)
    probs = np.asarray(trace.probabilities, dtype=float)
    want = (game.num_players, game.num_actions)
    if probs.ndim != 3 or probs.shape[1:] != want:
        raise ValueError(f"trace records have shape {probs.shape[1:]}, the game needs {want}")
    _check_produced_rows(probs, _RESPONSE_TOL)
    return _residuals(game, probs, response_operator(fams))


# ---------------------------------------------------------------------------
# Hessian of the smooth game
# ---------------------------------------------------------------------------

def _cross_blocks(game: Game):
    """Bind ``game``'s pure-action profile stack once: ``blocks(probs)`` gives the
    (M, M, N, N) cross-payoff blocks dU_j / dp_k at the ``(M, N)`` rows ``probs``.

    Block (j, k) holds dU_ji / dp_ki' for k != j; the diagonal blocks are zero,
    since no payoff vector depends on its own player's mix.  One contraction of
    M N profiles: profile (k, i') puts player k at action i', and its payoff row
    j is column i' of block (j, k).  A call writes ``probs`` into the mixed rows
    only; two players' blocks read none, so they are the same at every ``probs``.
    """
    m, n = game.num_players, game.num_actions
    pure = np.eye(m, dtype=bool)[:, None, :, None]  # row k of each profile (k, i')
    profiles, mixed = np.where(pure, np.eye(n)[:, None, :], 0.0), ~pure

    def blocks(probs: np.ndarray) -> np.ndarray:
        np.copyto(profiles, probs, where=mixed)
        cross = payoff_vector_rows(game, None, profiles)
        np.copyto(cross, 0.0, where=pure)
        return cross.transpose(2, 0, 3, 1)

    return blocks


def hessian_blocks(game: Game, profile: StrategyProfile, fams) -> np.ndarray:
    """(M, M, N, N) second-derivative blocks of the smooth game at ``profile``.

    Diagonal blocks come from the regularizer: -1 / density at the quantile,
    per action.  Off-diagonal blocks are the symmetrized cross-payoff
    matrices, with the remaining players held at their ``profile`` mixes.
    Raises when a zero-probability action meets an unbounded quantile; a
    density too small for its reciprocal to be a float gives -inf.
    """
    fams = _check_families(game, fams)
    cross = _cross_blocks(game)(profile.probs)
    blocks = 0.5 * (cross + cross.transpose(1, 0, 3, 2))
    for j in range(game.num_players):
        with np.errstate(divide="ignore", over="ignore"):
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

    ``curvature`` is the bound compared against ``coupling``: 1 over the
    largest density at any quantile of any action, 1 / ``lipschitz_constant()``,
    and 0.0 when that density is unbounded, which never passes.  It bounds the
    concavity of the regularizer, whose Hessian on the simplex's tangent space
    is -diag(1 / f_i(p_i)), from below at every p.  ``curvature_grid`` reads it
    off a p-grid, as a cross-check that never certifies.
    """

    player: int
    curvature: float
    curvature_grid: float
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


def _curvature(fam: MarginalFamily) -> float:
    """1 / ``lipschitz_constant()``, 0.0 where that is inf: each ``curvature`` and ``modulus``."""
    return 1.0 / float(fam.lipschitz_constant())


def _curvature_grid(fam: MarginalFamily) -> float:
    """Grid infimum of 1 / (worst-action density at the quantile) over p."""
    p = np.linspace(_GRID_EDGE, 1.0 - _GRID_EDGE, CURVATURE_GRID)
    dens = fam.density_vector(np.repeat(p[:, None], fam.n_actions, axis=1))
    with np.errstate(divide="ignore", over="ignore"):  # densities that underflow
        return float(1.0 / dens.max())


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
    return _coupling(game, player, {})


def _coupling(game: Game, player: int, pairs: dict) -> float:
    """:func:`coupling_bound`, each pair's term read from ``pairs``, or taken and stored there."""
    n, total = game.num_actions, 0.0
    for k in range(game.num_players):
        if k == player:
            continue
        pair = (min(player, k), max(player, k))
        if pair not in pairs:
            cross = sum(np.moveaxis(game.payoffs[r], pair, (-2, -1)) for r in pair).reshape(-1, n, n)
            pairs[pair] = 0.5 * float(np.linalg.norm(cross, 2, axis=(-2, -1)).max())
        total += pairs[pair]
    return total


def stability_check(game: Game, fams) -> StabilityReport:
    """Compare each player's regularization curvature against payoff coupling.

    A player passes when the curvature, 1 / ``lipschitz_constant()``, strictly
    exceeds :func:`coupling_bound`, which bounds the norms of the symmetrized
    cross blocks in the player's row of the Hessian.  So when every player
    passes, the Hessian's symmetric part is block diagonally dominant on the
    tangent space at every profile: the smooth game is diagonally strictly
    concave, and by Rosen (1965) its equilibrium is unique.  The report
    carries block-diagonal dominance and tangent-space negative definiteness
    of the Hessian at the uniform profile as corroborating diagnostics.  Each
    pair's norm batch is taken once for both its players, and each distinct
    family object's ``curvature_grid`` once for the players who share it.
    """
    fams = _check_families(game, fams)
    players, pairs, grids = [], {}, {}
    for j, fam in enumerate(fams):
        key = id(fam)  # not the class: families of one class differ in their parameters
        if key not in grids:
            grids[key] = _curvature_grid(fam)
        curvature, coupling = _curvature(fam), _coupling(game, j, pairs)
        players.append(PlayerStability(player=j, curvature=curvature, curvature_grid=grids[key],
                                       coupling=coupling, passed=bool(curvature > coupling)))
    blocks = hessian_blocks(game, uniform_profile(game.num_players, game.num_actions), fams)
    return StabilityReport(
        players=tuple(players), all_passed=all(p.passed for p in players),
        diag_dominant=diagonal_dominance_check(blocks),
        negdef_on_tangent=negdef_on_tangent_check(assemble_hessian(blocks), game.num_players))


def diagonal_dominance_check(blocks: np.ndarray) -> bool:
    """Block diagonal dominance of an (M, M, N, N) block matrix.

    True iff for every player the smallest diagonal magnitude of their own
    block strictly exceeds the summed operator norms of their off-diagonal
    row.  Non-diagonal or singular own-blocks fail, before any norm is taken.
    """
    blocks = np.asarray(blocks, dtype=float)
    m, floors = blocks.shape[0], []
    for j in range(m):
        own = blocks[j, j]
        if not np.allclose(own, np.diag(np.diagonal(own)), atol=1e-12):
            return False
        floors.append(float(np.abs(np.diagonal(own)).min()))
        if floors[j] == 0.0 or not np.isfinite(floors[j]):
            return False
    # every off-diagonal block's norm in one batched call, each row summed in column order
    off = np.linalg.norm(blocks[~np.eye(m, dtype=bool)], 2, axis=(-2, -1)).reshape(m, m - 1)
    return all(floor > sum(norms) for floor, norms in zip(floors, off.tolist()))


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
    below ``-tol``.  A Hessian with an entry that is not finite fails.
    """
    h = np.asarray(hessian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hessian must be square")
    dim = h.shape[0]
    if dim % n_players != 0 or dim // n_players < 2:
        raise ValueError(f"dimension {dim} does not split into {n_players} players")
    if not np.isfinite(h).all():
        return False
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
        grads[:, j] += fam.tail_quantile_vector(rows[:, j])
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

    ``modulus`` is 1 / lipschitz_constant, the stability check's
    ``curvature``: the strong-concavity constant of the response objective
    guaranteed by that CDF slope bound.  An unbounded slope gives ``modulus``
    0.0, ``verified`` False and no trials, so ``worst_slack`` is NaN.
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
                        + (1 / (2 L)) a (1-a) ||p - q||^2 - tol
    for random u in [0, 1]^N, simplex points p, q, and a in (0, 1).  The
    roundoff ``tol`` is ``_CONCAVITY_ULPS`` ulps of the largest magnitude the
    trial compares: |g| at the three points, and the modulus 1 / L, which
    bounds the quadratic term and sets the scale of the regularizer's own
    terms.  So an exactly quadratic regularizer, whose true slack is 0,
    passes at any scale, while a modulus that is off by more than a relative
    1e-12 or so still fails.  A family whose CDF slope is unbounded is
    reported as not strongly concave.
    """
    if n_trials < 1:
        raise ValueError("the concavity check needs at least one trial")
    lipschitz, modulus = float(fam.lipschitz_constant()), _curvature(fam)
    if modulus == 0.0:
        return ConcavityReport(lipschitz_constant=lipschitz, modulus=0.0, verified=False,
                               worst_slack=np.nan)
    rng = np.random.default_rng(seed)
    n = fam.n_actions
    # draw one trial at a time, u, p, q and a in turn, then take g on all of them at once
    draws = [(rng.random(n), rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)),
              rng.uniform(0.05, 0.95)) for _ in range(n_trials)]
    u, p, q, alpha = (np.array(column) for column in zip(*draws))
    a = alpha[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a regularizer past the float range
        g_mix, g_p, g_q = (np.vecdot(x, u) + fam.regularizer_terms(x)
                           for x in (a * p + (1.0 - a) * q, p, q))
        slack = g_mix - (alpha * g_p + (1.0 - alpha) * g_q
                         + 0.5 * modulus * alpha * (1.0 - alpha) * ((p - q) ** 2).sum(axis=-1))
        scale = np.maximum(np.maximum(np.abs(g_mix), np.abs(g_p)), np.maximum(np.abs(g_q), modulus))
    return ConcavityReport(
        lipschitz_constant=lipschitz,
        modulus=modulus,
        verified=bool((slack >= -_CONCAVITY_ULPS * _EPS * scale).all()),
        worst_slack=float(slack.min()),
    )
