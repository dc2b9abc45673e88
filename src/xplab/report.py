"""Run reports: config echo, numeric checks, verdicts, deterministic bytes.

The canonical byte form excludes wall time so identical (config, seed) runs
are byte-identical; timing goes to stderr only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .serialize import canonical_dumps
from .space import Check, verdict

__all__ = ["ARTIFACT_VERSION", "Report", "csv_rows"]

ARTIFACT_VERSION = "0.1.0"


@dataclass
class Report:
    command: str
    config: dict
    seed: int | None = None
    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return verdict(self.checks)

    def to_dict(self) -> dict:
        return {
            "version": ARTIFACT_VERSION,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
            "verdict": self.verdict,
        }

    def canonical(self) -> str:
        return canonical_dumps(self.to_dict())


def csv_rows(report: Report) -> str:
    """Project the checks to CSV (name, lhs, op, rhs, ok) for plotting."""
    lines = ["name,lhs,op,rhs,ok"]
    for c in report.checks:
        lines.append(f"{c.name},{c.lhs},{c.op},{c.rhs},{c.ok}")
    return "\n".join(lines) + "\n"
