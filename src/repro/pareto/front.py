"""Configuration-aware Pareto front container.

:class:`ConfigFront` binds objective points to their frequency
configurations, which is what the predictor ultimately returns: *which
(core, mem) settings to use*, not just where they land in objective space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algorithms import pareto_set_numpy
from .dominance import dominates


@dataclass(frozen=True)
class ConfigPoint:
    """One frequency configuration with its two measured/predicted objectives."""

    core_mhz: float
    mem_mhz: float
    speedup: float
    energy: float

    @property
    def config(self) -> tuple[float, float]:
        return (self.core_mhz, self.mem_mhz)

    @property
    def objectives(self) -> tuple[float, float]:
        return (self.speedup, self.energy)


@dataclass
class ConfigFront:
    """A set of configuration points plus its Pareto front."""

    points: list[ConfigPoint] = field(default_factory=list)

    def add(self, point: ConfigPoint) -> None:
        self.points.append(point)

    def objective_points(self) -> list[tuple[float, float]]:
        return [p.objectives for p in self.points]

    def pareto_front(self) -> list[ConfigPoint]:
        """The non-dominated subset, sorted by ascending speedup."""
        idx = pareto_set_numpy(self.objective_points())
        front = [self.points[i] for i in idx]
        return sorted(front, key=lambda p: (p.speedup, p.energy))

    def dominant_over_default(
        self, default: ConfigPoint
    ) -> list[ConfigPoint]:
        """Configurations that dominate the default one (§4.2's payoff:
        "there are other dominant solutions that cannot be selected by
        using the default configuration")."""
        return [
            p for p in self.points if dominates(p.objectives, default.objectives)
        ]

    def __len__(self) -> int:
        return len(self.points)
