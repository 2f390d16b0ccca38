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
from .games import (Game, StrategyProfile, _check_pair, pairwise_payoff_matrix, payoff_vector,
                    payoff_vector_rows, uniform_profile)
from .response import response_probabilities, smooth_payoff_gradient

#: resolution of the probability grid used when no closed-form curvature
#: bound exists; endpoints stay strictly inside (0, 1).
CURVATURE_GRID = 10_000
_GRID_EDGE = 1e-9


def _check_families(game: Game, fams) -> tuple:
    fams = tuple(fams)
    if len(fams) != game.num_players:
        raise ValueError(f"need one family per player ({game.num_players})")
    for fam in fams:
        if fam.n_actions != game.num_actions:
            raise ValueError("family action count does not match the game")
    return fams


def equilibrium_residual(game: Game, profile: StrategyProfile, fams) -> float:
    """Sup-norm gap between each player's mix and their quantal response.

    Zero exactly at a fixed point of the response map; continuous in the
    profile, so it doubles as a convergence measure for dynamics and solvers.
    """
    fams = _check_families(game, fams)
    worst = 0.0
    for j in range(game.num_players):
        u = payoff_vector(game, j, profile)
        target = response_probabilities(fams[j], u)
        worst = max(worst, float(np.abs(profile.player(j) - target).max()))
    return worst


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
    m = game.num_players
    current = (uniform_profile(m, game.num_actions) if start is None else start)
    _check_pair(game, current)
    probs = current.probs.copy()
    movement = np.inf
    iterations = 0
    # each sweep's rows are a convex mix of simplex rows: no profile to validate
    for iterations in range(1, max_iter + 1):
        pays = payoff_vector_rows(game, None, probs)
        targets = np.stack([response_probabilities(fams[j], pays[j]) for j in range(m)])
        new = (1.0 - damping) * probs + damping * targets
        movement = float(np.abs(new - probs).max())
        probs = new
        if movement <= tol:
            break
    final = StrategyProfile(probs)
    return FixedPointResult(
        profile=final,
        converged=movement <= tol,
        iterations=iterations,
        movement=movement,
        residual=equilibrium_residual(game, final, fams),
    )


def residual_series(game: Game, trace, fams) -> np.ndarray:
    """Equilibrium residual at every recorded round of a dynamics trace."""
    fams = _check_families(game, fams)
    return np.array([
        equilibrium_residual(game, StrategyProfile(trace.probabilities[k]), fams)
        for k in range(trace.rounds.size)
    ])


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
    blocks = np.zeros((m, m, n, n))
    for j in range(m):
        blocks[j, j] = np.diag(-1.0 / fams[j].density_vector(profile.player(j)))
    for j in range(m):
        for k in range(j + 1, m):
            rest = [profile.player(r) for r in range(m) if r not in (j, k)]
            a_jk = pairwise_payoff_matrix(game, j, k, rest)
            a_kj = pairwise_payoff_matrix(game, k, j, rest)
            blocks[j, k] = 0.5 * (a_jk + a_kj.T)
            blocks[k, j] = blocks[j, k].T
    return blocks


def assemble_hessian(blocks: np.ndarray) -> np.ndarray:
    """Flatten (M, M, N, N) blocks into the full (M N, M N) matrix."""
    blocks = np.asarray(blocks, dtype=float)
    m, n = blocks.shape[0], blocks.shape[2]
    return blocks.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def game_hessian(game: Game, profile: StrategyProfile, fams) -> np.ndarray:
    """Full (M N, M N) symmetric Hessian assembled from :func:`hessian_blocks`."""
    return assemble_hessian(hessian_blocks(game, profile, fams))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (spectral norm); 0 for an empty matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


# ---------------------------------------------------------------------------
# Stability condition: regularizer curvature vs. payoff coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlayerStability:
    """One player's side of the stability comparison.

    ``curvature`` is the regularization strength actually compared against
    ``coupling`` (closed form when available, else the grid value).  The
    ``curvature_conservative`` variant uses the worst action instead of the
    best one; ``readings_differ`` flags families where the two disagree, in
    which case the conservative value is the safer margin.
    """

    player: int
    curvature: float
    curvature_grid: float
    curvature_conservative: float
    grid_fallback: bool
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


def _density_grid(fam: MarginalFamily) -> np.ndarray:
    """Densities at the quantiles on the shared p-grid, shape (CURVATURE_GRID, N)."""
    p = np.linspace(_GRID_EDGE, 1.0 - _GRID_EDGE, CURVATURE_GRID)
    return fam.density_vector(np.repeat(p[:, None], fam.n_actions, axis=1))


def _curvature_grid_values(fam: MarginalFamily) -> tuple[float, float]:
    """Grid infimum of 1 / (best-action density) and 1 / (worst-action density)."""
    dens = _density_grid(fam)
    best = dens.min(axis=1)   # min over actions at each p
    worst = dens.max(axis=1)
    return float(1.0 / best.max()), float(1.0 / worst.max())


def coupling_bound(game: Game, player: int) -> float:
    """Max over opponents' pure profiles of the symmetrized cross-payoff norms.

    For each other player k this maximizes ||A_jk + A_kj^T|| over pure actions
    of the remaining players (the entries are multilinear in those mixes, and
    the norm is convex, so pure profiles attain the maximum); the bounds are
    then summed over k.  At payoffs in [0, 1] the result is at most N (M - 1).
    """
    m, n = game.num_players, game.num_actions
    total = 0.0
    for k in range(m):
        if k == player:
            continue
        others = [r for r in range(m) if r not in (player, k)]
        best = 0.0
        # `others` ascends, so these vertex lists arrive in player order
        for combo in np.ndindex(*([n] * len(others))):
            rest = [np.eye(n)[a] for a in combo]
            a_jk = pairwise_payoff_matrix(game, player, k, rest)
            a_kj = pairwise_payoff_matrix(game, k, player, rest)
            best = max(best, operator_norm(a_jk + a_kj.T))
        total += 0.5 * best
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
        grid_main, grid_cons = _curvature_grid_values(fam)
        closed = fam.curvature_scale()
        curvature = closed if closed is not None else grid_main
        coupling = coupling_bound(game, j)
        players.append(PlayerStability(
            player=j,
            curvature=float(curvature),
            curvature_grid=grid_main,
            curvature_conservative=grid_cons,
            grid_fallback=closed is None,
            readings_differ=abs(grid_main - grid_cons) > 1e-9 * max(1.0, abs(grid_main)),
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


def diagonal_dominance_check(blocks: np.ndarray, verbose: bool = False) -> bool:
    """Block diagonal dominance of an (M, M, N, N) block matrix.

    True iff for every player the smallest diagonal magnitude of their own
    block strictly exceeds the summed operator norms of their off-diagonal
    row.  Non-diagonal or singular own-blocks fail (with a note if verbose).
    """
    blocks = np.asarray(blocks, dtype=float)
    m = blocks.shape[0]
    for j in range(m):
        own = blocks[j, j]
        if not np.allclose(own, np.diag(np.diagonal(own)), atol=1e-12):
            if verbose:
                print(f"player {j}: own block is not diagonal")
            return False
        floor = float(np.abs(np.diagonal(own)).min())
        if floor == 0.0 or not np.isfinite(floor):
            if verbose:
                print(f"player {j}: own block is singular or unbounded")
            return False
        off = sum(operator_norm(blocks[j, k]) for k in range(m) if k != j)
        if not floor > off:
            if verbose:
                print(f"player {j}: diagonal floor {floor:.6g} <= coupling {off:.6g}")
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


def negdef_on_tangent_check(hessian: np.ndarray, tol: float = 1e-9,
                            n_players: int | None = None) -> bool:
    """Negative definiteness of a full Hessian on the tangent space.

    Projects onto the per-player zero-sum subspace and checks that the
    largest eigenvalue is below ``-tol``.  Pass ``n_players`` whenever the
    (players, actions) split of the dimension is ambiguous; by default the
    smallest viable player count is used.
    """
    h = np.asarray(hessian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hessian must be square")
    dim = h.shape[0]
    if n_players is None:
        n_players = next(
            (m for m in range(2, dim + 1) if dim % m == 0 and dim // m >= 2), 0
        )
        if not n_players:
            raise ValueError(f"cannot infer a (players, actions) split from dimension {dim}")
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
    m, n = game.num_players, game.num_actions
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=(n_samples, m))
    rows = rows * (1.0 - n * floor) + floor
    worst = -np.inf
    violations = 0
    star = profile.probs
    for s in range(n_samples):
        candidate = StrategyProfile(rows[s])
        if np.abs(rows[s] - star).max() < 1e-12:
            continue
        value = 0.0
        for j in range(m):
            grad = smooth_payoff_gradient(game, j, candidate, fams[j])
            value += float(np.dot(grad, rows[s, j] - star[j]))
        worst = max(worst, value)
        if value >= 0.0:
            violations += 1
    return VariationalProbe(
        worst_value=float(worst),
        min_margin=float(-worst),
        violations=violations,
        samples=n_samples,
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Lipschitz constant of the CDFs and a sampled strong-concavity check.

    ``modulus`` is 1 / lipschitz_constant: the strong-concavity constant of
    the response objective guaranteed by that CDF slope bound.
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
    for random u in [0, 1]^N, simplex points p, q, and a in (0, 1).
    """
    lipschitz = fam.lipschitz_constant()
    if lipschitz is None:
        lipschitz = float(_density_grid(fam).max())
    if not np.isfinite(lipschitz) or lipschitz <= 0.0:
        raise ValueError("family has no finite positive CDF slope bound")
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
        lipschitz_constant=float(lipschitz),
        modulus=float(modulus),
        verified=ok,
        worst_slack=float(worst),
    )
