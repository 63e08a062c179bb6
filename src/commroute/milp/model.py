"""A 0/1 minimization model container with deterministic LP export.

Every integer program commroute builds is a binary program that minimizes:
builders declare 0/1 variables, rows over them and a minimized objective,
and the backends module assembles them into sparse arrays for a HiGHS solve
through scipy. Export is deterministic down to the byte so model builds can
be golden-tested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import ClassVar

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


@dataclass
class Variable:
    name: str
    lb: float = 0.0  # 0/1, narrowed only by MilpModel.fix_var
    ub: float = 1.0


@dataclass
class LinearConstraint:
    name: str
    terms: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    sense: str  # "<=", ">=", "=="
    rhs: float


def _fmt(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)


def _terms_text(terms) -> str:
    parts = []
    for k, (vi, coeff) in enumerate(terms):
        mag = _fmt(abs(coeff))
        if k == 0:
            parts.append(f"{'- ' if coeff < 0 else ''}{mag} {vi}")
        else:
            parts.append(f"{'-' if coeff < 0 else '+'} {mag} {vi}")
    return " ".join(parts)


@dataclass
class MilpModel:
    name: str = "model"
    variables: list[Variable] = field(default_factory=list)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: tuple[tuple[int, float], ...] = ()
    # Always True: every model minimizes. Kept as an attribute because the
    # benchmark's reference LP solver reads it.
    minimize: ClassVar[bool] = True
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def add_var(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"variable name {name!r} is not LP-safe")
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self.variables)
        self.variables.append(Variable(name))

    def fix_var(self, name: str, value: float) -> None:
        v = self.variables[self._index[name]]
        if not (v.lb - 1e-9 <= value <= v.ub + 1e-9):
            raise ValueError(f"cannot fix {name} to {value}: outside [{v.lb}, {v.ub}]")
        v.lb = v.ub = value

    def _resolve_terms(self, terms) -> tuple[tuple[int, float], ...]:
        """(name, coefficient) pairs as sorted (index, coefficient) pairs,
        repeated names merged and zero coefficients dropped."""
        index = self._index
        combined: dict[int, float] = {}
        for name, coeff in terms:
            idx = index[name]
            combined[idx] = combined.get(idx, 0.0) + float(coeff)
        return tuple((i, c) for i, c in sorted(combined.items()) if c != 0.0)

    def add_constr(self, name: str, terms, sense: str, rhs: float) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"constraint name {name!r} is not LP-safe")
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        self.constraints.append(
            LinearConstraint(name, self._resolve_terms(terms), sense, float(rhs))
        )

    def set_objective(self, terms) -> None:
        self.objective = self._resolve_terms(terms)

    def lp_string(self) -> str:
        names = [v.name for v in self.variables]
        lines = [f"\\ {self.name}", "Minimize"]
        obj = _terms_text([(names[i], c) for i, c in self.objective])
        lines.append(f" obj: {obj}".rstrip())
        lines.append("Subject To")
        for c in self.constraints:
            sense = {"<=": "<=", ">=": ">=", "==": "="}[c.sense]
            body = _terms_text([(names[i], co) for i, co in c.terms])
            lines.append(f" {c.name}: {body} {sense} {_fmt(c.rhs)}")
        lines.append("Bounds")
        for v in self.variables:
            if v.lb == v.ub:
                lines.append(f" {v.name} = {_fmt(v.lb)}")
            else:
                lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
        if names:
            lines.append("Binaries")
            lines.extend(f" {name}" for name in names)
        lines.append("End")
        return "\n".join(lines) + "\n"
