"""Experiment configuration files.

A config is a single JSON object naming a game file (resolved relative to the
config's own directory), the per-player families, a step schedule, and run
and solver settings.  Families may be given once, as one object that every
player holds and so shares kernel calls, or as a per-player list.  Loading
builds the :class:`RunConfig`, so every setting of the run is validated once,
when the file is read.  Scalar fields are read by the number rule of
:mod:`beliefgames.games` (``_field`` with ``_integer`` or ``_real``), as the
game file, family objects and schedule are.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .dynamics import PROBABILITY_CLAMP, RunConfig, StepSchedule
from .families import family_from_dict
from .games import Game, _field, _integer, _known_fields, _real, _reals, load_game


@dataclass(frozen=True)
class Tolerances:
    """Thresholds shared by the simulate/solve/check commands, checked when built."""

    residual: float = 1e-3
    fixed_point: float = 1e-10
    max_iterations: int = 10_000
    damping: float = 0.5

    def __post_init__(self) -> None:
        for name in ("residual", "fixed_point"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"tolerance {name!r} must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("tolerance 'max_iterations' must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("tolerance 'damping' must lie in (0, 1]")


@dataclass
class ExperimentConfig:
    game: Game
    game_path: str
    run: RunConfig
    seed: int = 0
    out_dir: str | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)

    def describe(self) -> dict:
        """JSON-friendly summary used by dry runs and written next to outputs."""
        run = self.run
        return {
            "game": self.game_path,
            "players": self.game.num_players,
            "actions": self.game.num_actions,
            "risk_families": [f.to_dict() for f in run.risk_families],
            "belief_families": [f.to_dict() for f in run.belief_families],
            "schedule": run.schedule.to_dict(),
            "horizon": run.horizon,
            "seed": self.seed,
            "downsample": run.record_every,
            "clamp": run.probability_clamp,
            "initial_estimates": (None if run.initial_estimates is None
                                  else run.initial_estimates.tolist()),
            "out_dir": self.out_dir,
            "tolerances": vars(self.tolerances) | {},
        }


def _families_from_spec(spec, game: Game, label: str) -> tuple:
    if not isinstance(spec, (dict, list)):
        raise ValueError(f"{label} must be a family object or a per-player list")
    if isinstance(spec, list) and len(spec) != game.num_players:
        raise ValueError(
            f"{label} lists {len(spec)} families, game has {game.num_players} players")
    fams = []
    for j, doc in enumerate([spec] if isinstance(spec, dict) else spec):
        try:
            fams.append(family_from_dict(doc, n_actions=game.num_actions))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{label}[{j}]: {exc}") from exc
    return tuple(fams) * (game.num_players // len(fams))


def _path(value, key: str):
    if not isinstance(value, str):
        raise ValueError(f"{key}: expected a path string, got {value!r}")
    return value


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate a config file.

    Raises ValueError, prefixed with ``path``, on any problem with its content.
    """
    try:
        return _parse(path)
    except KeyError as exc:
        raise ValueError(f"{path}: missing required field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


_CONFIG_FIELDS = ("game", "risk_families", "belief_families", "schedule", "horizon",
                  "initial_estimates", "clamp", "downsample", "tolerances", "seed", "out_dir")


def _parse(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    _known_fields(doc, _CONFIG_FIELDS, "config field")

    game_rel = _path(doc["game"], "game")
    base = os.path.dirname(os.path.abspath(path))
    game_path = game_rel if os.path.isabs(game_rel) else os.path.join(base, game_rel)
    try:
        game = load_game(game_path)
    except OSError as exc:
        raise ValueError(f"cannot read game file {game_path!r} ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"game file {game_path!r}: {exc}") from exc

    risk = _families_from_spec(doc["risk_families"], game, "risk_families")
    belief = (_families_from_spec(doc["belief_families"], game, "belief_families")
              if "belief_families" in doc else risk)
    run = RunConfig(
        horizon=_field(doc, "horizon", _integer),
        schedule=StepSchedule.from_dict(doc["schedule"]),
        risk_families=risk,
        belief_families=belief,
        initial_estimates=(None if doc.get("initial_estimates") is None
                           else _field(doc, "initial_estimates", _reals)),
        probability_clamp=_field(doc, "clamp", _real, PROBABILITY_CLAMP),
        record_every=_field(doc, "downsample", _integer, 1),
    )

    given = doc.get("tolerances", {})
    if not isinstance(given, dict):
        raise ValueError(f"tolerances: expected an object, got {given!r}")
    defaults = vars(Tolerances())
    _known_fields(given, defaults, "tolerance")
    tols = Tolerances(**{
        key: _field(given, key, _integer if type(value) is int else _real, value,
                    f"tolerance {key!r}")
        for key, value in defaults.items()})

    out_dir = doc.get("out_dir")
    return ExperimentConfig(
        game=game,
        game_path=game_path,
        run=run,
        seed=_field(doc, "seed", _integer, 0),
        out_dir=None if out_dir is None else _path(out_dir, "out_dir"),
        tolerances=tols,
    )
