"""Experiment configuration files.

A config is a single JSON object naming a game file (resolved relative to the
config's own directory), the per-player families, a step schedule, and run
and solver settings.  Families may be given once (applied to every player) or
as a per-player list.  Loading builds the :class:`RunConfig`, so every setting
of the run is validated once, when the file is read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .dynamics import PROBABILITY_CLAMP, RunConfig, StepSchedule
from .families import family_from_dict
from .games import Game, load_game


@dataclass
class Tolerances:
    """Thresholds shared by the simulate/solve/check commands."""

    residual: float = 1e-3
    fixed_point: float = 1e-10
    max_iterations: int = 10_000
    damping: float = 0.5


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
    if isinstance(spec, dict):
        specs = [spec] * game.num_players
    elif isinstance(spec, list):
        specs = spec
    else:
        raise ValueError(f"{label} must be a family object or a per-player list")
    if len(specs) != game.num_players:
        raise ValueError(
            f"{label} lists {len(specs)} families, game has {game.num_players} players"
        )
    fams = []
    for j, doc in enumerate(specs):
        try:
            fams.append(family_from_dict(doc, n_actions=game.num_actions))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{label}[{j}]: {exc}") from exc
    return tuple(fams)


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


def _parse(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")

    game_rel = doc["game"]
    base = os.path.dirname(os.path.abspath(path))
    game_path = game_rel if os.path.isabs(game_rel) else os.path.join(base, game_rel)
    try:
        game = load_game(game_path)
    except OSError as exc:
        raise ValueError(f"cannot read game file {game_path!r} ({exc})") from exc

    risk = _families_from_spec(doc["risk_families"], game, "risk_families")
    belief = (_families_from_spec(doc["belief_families"], game, "belief_families")
              if "belief_families" in doc else risk)
    run = RunConfig(
        horizon=int(doc["horizon"]),
        schedule=StepSchedule.from_dict(doc["schedule"]),
        risk_families=risk,
        belief_families=belief,
        initial_estimates=doc.get("initial_estimates"),
        probability_clamp=float(doc.get("clamp", PROBABILITY_CLAMP)),
        record_every=int(doc.get("downsample", 1)),
    )

    tols = Tolerances()
    for key, value in dict(doc.get("tolerances") or {}).items():
        if key not in vars(tols):
            raise ValueError(f"unknown tolerance {key!r}")
        try:
            setattr(tols, key, type(getattr(tols, key))(value))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"tolerance {key!r}: {exc}") from exc

    return ExperimentConfig(
        game=game,
        game_path=game_path,
        run=run,
        seed=int(doc.get("seed", 0)),
        out_dir=doc.get("out_dir"),
        tolerances=tols,
    )
