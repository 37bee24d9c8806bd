"""Pass/fail accounting shared by the verifier, the scanners, and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    family: str
    indices: tuple[int, ...]
    message: str
    lhs: str = ""
    rhs: str = ""

    def to_dict(self) -> dict:
        d: dict = {
            "family": self.family,
            "indices": list(self.indices),
            "message": self.message,
        }
        if self.lhs or self.rhs:
            d["lhs"] = self.lhs
            d["rhs"] = self.rhs
        return d


@dataclass
class RunReport:
    """Aggregated outcome of one verification or scan command.

    `families` maps each family to its [instances, passes]; the report's
    totals are their sums.  A report holds no time, so identical calls
    return equal reports; the command line times each command itself and
    hands the seconds to `render_text`.
    """

    tag: str
    failures: list[Failure] = field(default_factory=list)
    families: dict[str, list[int]] = field(default_factory=dict)
    info: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        family: str,
        indices: tuple[int, ...],
        ok: bool,
        message: str = "",
        lhs: str = "",
        rhs: str = "",
    ) -> None:
        counts = self.families.setdefault(family, [0, 0])
        counts[0] += 1
        if ok:
            counts[1] += 1
        else:
            self.failures.append(Failure(family, indices, message, lhs, rhs))

    def add_passes(self, family: str, count: int) -> None:
        """Record `count` passing instances of `family`, as that many passing `add` calls would."""
        if count:
            counts = self.families.setdefault(family, [0, 0])
            counts[0] += count
            counts[1] += count

    @property
    def instances(self) -> int:
        return sum(c[0] for c in self.families.values())

    @property
    def passes(self) -> int:
        return sum(c[1] for c in self.families.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "instances": self.instances,
            "passes": self.passes,
            "families": {
                name: {"instances": c[0], "passes": c[1]}
                for name, c in sorted(self.families.items())
            },
            "info": dict(sorted(self.info.items())),
            "failures": [f.to_dict() for f in self.failures],
            "ok": self.ok,
        }

    def render_text(self, seconds: float) -> str:
        """The human rendering; its header ends in `seconds`, the caller's timing of the run."""
        lines = [
            f"[{'PASS' if self.ok else 'FAIL'}] {self.tag}: "
            f"{self.passes}/{self.instances} instances pass ({seconds:.2f} s)"
        ]
        for name, (total, passed) in sorted(self.families.items()):
            lines.append(f"    {name}: {passed}/{total}")
        for key, value in sorted(self.info.items()):
            lines.append(f"    {key}: {value}")
        for f in self.failures:
            lines.append(f"    FAIL {f.family} {f.indices}: {f.message}")
            if f.lhs or f.rhs:
                lines.append(f"         lhs = {f.lhs}")
                lines.append(f"         rhs = {f.rhs}")
        return "\n".join(lines)


def render_reports_json(report: RunReport, command: str) -> str:
    payload = {"command": command, "ok": report.ok, "reports": [report.to_dict()]}
    return json.dumps(payload, sort_keys=True)
