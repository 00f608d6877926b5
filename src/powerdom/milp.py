"""Integer-program exports and a reader for the LP text they are written as.

Three models are emitted in CPLEX-LP syntax: the full power-domination
MILP (binary selection x_v, continuous observation steps s_v in [1, n],
binary propagation arcs p_{v,w}), the hitting set ILP over fort
neighborhoods, and the minimum violated-fort-neighborhood ILP. The
big-M constant is M = n, which makes the step constraints non-binding
exactly when the corresponding arc is unused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError


@dataclass(frozen=True)
class MilpVar:
    name: str
    kind: str  # "binary" | "continuous"
    lb: float = 0.0
    ub: float = 1.0


@dataclass(frozen=True)
class MilpConstraint:
    name: str
    coeffs: tuple  # ((var name, coefficient), ...) in emission order
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class MilpModel:
    objective: tuple  # ((var name, coefficient), ...)
    variables: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)

    def add_var(self, name, kind, lb=0.0, ub=1.0):
        self.variables[name] = MilpVar(name, kind, lb, ub)

    def add_constraint(self, name, coeffs, sense, rhs):
        cleaned = tuple((v, float(c)) for v, c in coeffs if c != 0)
        self.constraints.append(MilpConstraint(name, cleaned, sense, float(rhs)))


def build_pds_milp(inst):
    """Power domination MILP for an extension instance.

    Families: domination caps (s_v = 1 next to a selected vertex), big-M
    coverage (every vertex is selected, dominated or has an incoming
    arc), in/out arc caps, step ordering along arcs, step bounds in
    [1, n], fixings for pre-selected / excluded / non-propagating.
    """
    n = inst.n
    big_m = max(n, 1)
    model = MilpModel(objective=tuple((f"x_{v}", 1) for v in range(n)))
    for v in range(n):
        model.add_var(f"x_{v}", "binary")
    for v in range(n):
        model.add_var(f"s_{v}", "continuous", 1, n if n else 1)
    for u in range(n):
        for w in inst.adj[u]:
            model.add_var(f"p_{u}_{w}", "binary")

    for v in range(n):
        for t in sorted((v, *inst.adj[v])):
            model.add_constraint(
                f"dom_{v}_{t}",
                [(f"s_{v}", 1), (f"x_{t}", big_m - 1)], "<=", big_m)
    for v in range(n):
        coeffs = [(f"s_{v}", 1), (f"x_{v}", -big_m)]
        for w in inst.adj[v]:
            coeffs.append((f"x_{w}", -big_m))
            coeffs.append((f"p_{w}_{v}", -big_m))
        model.add_constraint(f"obs_{v}", coeffs, "<=", 0)
    for v in range(n):
        if inst.adj[v]:
            model.add_constraint(
                f"arcin_{v}",
                [(f"p_{w}_{v}", 1) for w in inst.adj[v]], "<=", 1)
            model.add_constraint(
                f"arcout_{v}",
                [(f"p_{v}_{w}", 1) for w in inst.adj[v]], "<=", 1)
    for v in range(n):
        for w in inst.adj[v]:
            for t in sorted({w, *inst.adj[w]} - {v}):
                model.add_constraint(
                    f"step_{v}_{w}_{t}",
                    [(f"s_{v}", 1), (f"s_{t}", -1), (f"p_{w}_{v}", -big_m)],
                    ">=", 1 - big_m)
    for v in sorted(inst.pre_selected):
        model.add_constraint(f"presel_{v}", [(f"x_{v}", 1)], "=", 1)
    for v in sorted(inst.excluded):
        model.add_constraint(f"excl_{v}", [(f"x_{v}", 1)], "=", 0)
    for v in range(n):
        if not inst.propagating[v]:
            for w in inst.adj[v]:
                model.add_constraint(f"noprop_{v}_{w}",
                                     [(f"p_{v}_{w}", 1)], "=", 0)
    return model


def build_hitting_set_ilp(hs):
    """Covering ILP: minimise the binary s_v of the universe's elements,
    with one row per fort neighborhood."""
    elems = sorted(hs.universe)
    model = MilpModel(objective=tuple((f"s_{v}", 1) for v in elems))
    for v in elems:
        model.add_var(f"s_{v}", "binary")
    for i, s in enumerate(hs.sets):
        model.add_constraint(f"cover_{i}",
                             [(f"s_{v}", 1) for v in sorted(s)], ">=", 1)
    return model


def build_fort_ilp(inst, observed):
    """Minimum violated fort neighborhood, given the observed set R.

    x_v marks fort membership (zero on R), y_v marks neighborhood
    membership; a propagating vertex outside the fort may not see exactly
    one fort vertex. Feasible iff R is not all of V.
    """
    observed = frozenset(observed)
    n = inst.n
    model = MilpModel(objective=tuple((f"y_{v}", 1) for v in range(n)))
    for v in range(n):
        model.add_var(f"x_{v}", "binary")
        model.add_var(f"y_{v}", "binary")
    model.add_constraint("nonempty", [(f"x_{v}", 1) for v in range(n)],
                         ">=", 1)
    for v in sorted(observed):
        model.add_constraint(f"obs_{v}", [(f"x_{v}", 1)], "=", 0)
    for v in range(n):
        if not inst.propagating[v]:
            continue
        for u in inst.adj[v]:
            coeffs = [(f"x_{v}", 1)]
            for w in inst.adj[v]:
                if w != u:
                    coeffs.append((f"x_{w}", 1))
            coeffs.append((f"x_{u}", -1))
            model.add_constraint(f"closure_{v}_{u}", coeffs, ">=", 0)
    for v in range(n):
        for w in sorted((v, *inst.adj[v])):
            model.add_constraint(f"link_{v}_{w}",
                                 [(f"y_{v}", 1), (f"x_{w}", -1)], ">=", 0)
    return model


# --- LP text ----------------------------------------------------------------


def _num(x):
    return str(int(x)) if x == int(x) else str(x)


def _format_terms(coeffs):
    parts = []
    for name, coef in coeffs:
        coef = float(coef)
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        mag_str = "" if mag == 1 else _num(mag) + " "
        term = f"{mag_str}{name}"
        if not parts and sign == "+":
            parts.append(term)
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0 zero_"


def write_lp(model):
    """Serialize to CPLEX-LP text (Minimize / Subject To / Bounds /
    Binaries / End), one constraint per line."""
    lines = ["Minimize", f" obj: {_format_terms(model.objective)}", "Subject To"]
    for c in model.constraints:
        lines.append(
            f" {c.name}: {_format_terms(c.coeffs)} {c.sense} {_num(c.rhs)}")
    bounds = [v for v in model.variables.values() if v.kind == "continuous"]
    if bounds:
        lines.append("Bounds")
        for v in bounds:
            lines.append(f" {_num(v.lb)} <= {v.name} <= {_num(v.ub)}")
    binaries = [v.name for v in model.variables.values() if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        for i in range(0, len(binaries), 12):
            lines.append(" " + " ".join(binaries[i:i + 12]))
    lines.append("End")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"([+-])?\s*(\d+(?:\.\d+)?)?\s*([A-Za-z_][A-Za-z0-9_]*)")
_ROW_RE = re.compile(r"^\s*(?:([A-Za-z_][\w]*)\s*:)?\s*(.*?)\s*(<=|>=|=)\s*"
                     r"([+-]?\d+(?:\.\d+)?)\s*$")
_BOUND_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?)\s*<=\s*([A-Za-z_][\w]*)"
                       r"\s*<=\s*([+-]?\d+(?:\.\d+)?)\s*$")


def _parse_terms(text):
    coeffs = []
    pos = 0
    for match in _TERM_RE.finditer(text):
        if match.start() < pos:
            continue
        sign, mag, name = match.groups()
        if name == "zero_":
            continue
        coef = float(mag) if mag else 1.0
        if sign == "-":
            coef = -coef
        coeffs.append((name, coef))
        pos = match.end()
    return tuple(coeffs)


def parse_lp(text):
    """Strict reader for the dialect written by write_lp."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    section = None
    objective = None
    constraints = []
    bounds = {}
    binaries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = lowered
            continue
        if section == "minimize":
            body = line.split(":", 1)[1] if ":" in line else line
            objective = _parse_terms(body)
        elif section == "subject to":
            match = _ROW_RE.match(line)
            if not match:
                raise ParseError(f"bad constraint row: {line!r}", lineno)
            name, body, sense, rhs = match.groups()
            constraints.append(MilpConstraint(
                name or f"c{len(constraints)}", _parse_terms(body), sense,
                float(rhs)))
        elif section == "bounds":
            match = _BOUND_RE.match(line)
            if not match:
                raise ParseError(f"bad bounds row: {line!r}", lineno)
            lb, name, ub = match.groups()
            bounds[name] = (float(lb), float(ub))
        elif section == "binaries":
            binaries.extend(line.split())
        elif section == "end":
            raise ParseError("content after End", lineno)
        else:
            raise ParseError(f"content before Minimize: {line!r}", lineno)
    if objective is None:
        raise ParseError("missing objective")
    model = MilpModel(objective=objective)
    for name in binaries:
        model.add_var(name, "binary")
    for name, (lb, ub) in bounds.items():
        model.add_var(name, "continuous", lb, ub)
    seen = set(model.variables)
    for c in constraints:
        for name, _ in c.coeffs:
            if name not in seen:
                raise ParseError(f"constraint uses undeclared variable {name}")
        model.constraints.append(c)
    return model
