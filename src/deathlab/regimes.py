"""Death-probability regimes: how the per-individual mortality depends on
the current state k and the initial state n.

Four parametric families plus an explicit table:

* ``Constant(c)``             -- fixed c in (0,1)
* ``InitialPower(a, gamma)``  -- c_n = a * n**-gamma, set by the initial state
* ``StatePower(a, gamma)``    -- c_k = a * k**-gamma, set by the current state
* ``JointPower(alpha, beta)`` -- c_{k,n} = k**alpha / n**beta, beta >= alpha
* ``Table(values)``           -- explicit (k, n) -> probability map

Regimes are immutable and serialize to a tagged-union JSON encoding with a
bit-exact round-trip; ``FAMILIES`` maps each JSON type tag to its class.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np


class RegimeError(ValueError):
    """Invalid regime parameters or an out-of-range evaluation."""


@dataclass(frozen=True)
class Constant:
    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise RegimeError(f"constant mortality must lie in (0,1), got {self.c}")


@dataclass(frozen=True)
class InitialPower:
    """c_n = a * n**-gamma: mortality frozen at the start of each run."""

    a: float
    gamma: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.gamma <= 0:
            raise RegimeError(f"InitialPower needs a > 0 and gamma > 0, got {self}")


@dataclass(frozen=True)
class StatePower:
    """c_k = a * k**-gamma: mortality tracks the current population.

    One concrete instantiation of a state-dependent sequence; gamma > 2
    makes sum k*c_k finite, the hypothesis under which the single-drop
    path keeps positive probability forever.  Arbitrary sequences go
    through ``Table``.
    """

    a: float
    gamma: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.gamma <= 0:
            raise RegimeError(f"StatePower needs a > 0 and gamma > 0, got {self}")


@dataclass(frozen=True)
class JointPower:
    """c_{k,n} = k**alpha / n**beta; beta >= alpha keeps every value <= 1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise RegimeError(f"JointPower needs alpha > 0 and beta > 0, got {self}")
        if self.beta < self.alpha:
            raise RegimeError(
                f"JointPower needs beta >= alpha so probabilities stay <= 1, got {self}"
            )


@dataclass(frozen=True)
class Table:
    """Explicit (k, n) -> probability map for custom experiments.

    The only regime allowed to assign probability 1 by construction.
    """

    values: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        # the type rules of from_dict: integer states, never bools, and a
        # number for each probability
        values = {}
        for key, p in dict(self.values).items():
            if not (
                isinstance(key, tuple)
                and len(key) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in key)
            ):
                raise RegimeError(f"table key must be a pair of integer states (k, n), got {key!r}")
            k, n = key
            if not (1 <= k <= n):
                raise RegimeError(f"table key ({k}, {n}) violates 1 <= k <= n")
            p = _number(p, f"table probability at ({k}, {n})")
            if not 0.0 < p <= 1.0:
                raise RegimeError(f"table probability at ({k}, {n}) must be in (0,1], got {p}")
            values[key] = p
        object.__setattr__(self, "values", values)


MortalityRegime = Union[Constant, InitialPower, StatePower, JointPower, Table]

# JSON type tag -> regime class.  A parametric family's dataclass fields are
# its parameters: the JSON fields and, in order, the inline arguments.
FAMILIES = {
    "constant": Constant,
    "initial_power": InitialPower,
    "state_power": StatePower,
    "joint_power": JointPower,
    "table": Table,
}


def mortality(regime: MortalityRegime, k: int, n: int) -> float:
    """Death probability applied to each individual at state k, start n."""
    if not 1 <= k <= n:
        raise RegimeError(f"state out of range: need 1 <= k <= n, got k={k}, n={n}")
    if isinstance(regime, Constant):
        return regime.c
    if isinstance(regime, InitialPower):
        value = regime.a * float(n) ** (-regime.gamma)
    elif isinstance(regime, StatePower):
        value = regime.a * float(k) ** (-regime.gamma)
    elif isinstance(regime, JointPower):
        try:
            value = float(k) ** regime.alpha / float(n) ** regime.beta
        except OverflowError:
            raise RegimeError(f"{regime} overflows a double at (k={k}, n={n})") from None
    elif isinstance(regime, Table):
        try:
            return regime.values[(k, n)]
        except KeyError:
            raise RegimeError(f"table regime has no entry for (k={k}, n={n})") from None
    else:
        raise RegimeError(f"unknown regime type: {type(regime).__name__}")
    if not value > 0.0:
        raise RegimeError(f"{regime} evaluates to {value} at (k={k}, n={n}); must be positive")
    if value > 1.0:
        raise RegimeError(f"{regime} evaluates to {value} > 1 at (k={k}, n={n})")
    return value


def mortality_vector(regime: MortalityRegime, n: int) -> list[float]:
    """Mortalities along the single-drop path: entry k-1 is c at state k."""
    return [mortality(regime, k, n) for k in range(1, n + 1)]


def prepare(regime: MortalityRegime, n: int) -> np.ndarray:
    """The mortality array every process kernel reads, validated up front.

    Entry k is ``mortality(regime, k, n)``, so every entry lies in (0, 1]
    and an incomplete ``Table`` fails here, before any draw.  The last
    entry holds for every state above it: ``Constant`` and
    ``InitialPower`` do not depend on k and get two entries, so a huge n
    costs O(1) memory; the other regimes get n+1.  Entry 0 repeats entry
    1 (state 0 is absorbing, so no kernel reads it).
    """
    top = 1 if isinstance(regime, (Constant, InitialPower)) else n
    values = [mortality(regime, k, n) for k in range(1, top + 1)]
    return np.array(values[:1] + values, dtype=np.float64)


def to_json(regime: MortalityRegime) -> str:
    """Tagged-union JSON encoding; floats round-trip bit-exactly."""
    tag = next((t for t, cls in FAMILIES.items() if type(regime) is cls), None)
    if tag is None:
        raise RegimeError(f"unknown regime type: {type(regime).__name__}")
    if isinstance(regime, Table):
        body = {"values": sorted([k, n, p] for (k, n), p in regime.values.items())}
    else:
        body = dataclasses.asdict(regime)
    return json.dumps({"type": tag, **body}, sort_keys=True)


def _number(value, what: str) -> float:
    # a JSON number: an int or a float, never a bool or a numeric string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RegimeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise RegimeError(f"{what} overflows a double, got {value!r}") from None


def _table_values(triples) -> dict:
    if not isinstance(triples, list):
        raise RegimeError("table regime field 'values' must be a list of [k, n, p] triples")
    values = {}
    for item in triples:
        if not (isinstance(item, list) and len(item) == 3):
            raise RegimeError(f"table entry must be a [k, n, p] triple, got {item!r}")
        k, n, p = item
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (k, n)):
            raise RegimeError(f"table entry states must be integers, got {item!r}")
        if (k, n) in values:
            raise RegimeError(f"table entry {item!r} repeats the state ({k}, {n})")
        values[(k, n)] = _number(p, f"table probability of entry {item!r}")
    return values


def from_dict(data: dict) -> MortalityRegime:
    """Decode the tagged-union dict form, rejecting unknown fields and
    values of the wrong JSON type."""
    if not isinstance(data, dict):
        raise RegimeError(f"regime must be a JSON object, got {type(data).__name__}")
    tag = data.get("type")
    if not isinstance(tag, str) or tag not in FAMILIES:
        raise RegimeError(f"unknown regime type tag: {tag!r}")
    cls = FAMILIES[tag]
    fields = {k: v for k, v in data.items() if k != "type"}
    expected = {f.name for f in dataclasses.fields(cls)}
    unknown = set(fields) - expected
    if unknown:
        raise RegimeError(f"unknown field(s) for regime {tag!r}: {sorted(unknown)}")
    missing = expected - set(fields)
    if missing:
        raise RegimeError(f"missing field(s) for regime {tag!r}: {sorted(missing)}")
    if cls is Table:
        return Table(_table_values(fields["values"]))
    return cls(**{name: _number(value, f"regime field {name!r}") for name, value in fields.items()})


def from_json(text: str) -> MortalityRegime:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegimeError(f"regime is not valid JSON: {exc}") from exc
    return from_dict(data)


def parse_inline(spec: str) -> MortalityRegime:
    """Parse the compact CLI form, e.g. ``constant:0.3`` or ``joint_power:1,4``."""
    name, _, arg_text = spec.partition(":")
    name = name.strip().lower().replace("-", "_")
    args = [a for a in arg_text.split(",") if a.strip()]
    try:
        values = [float(a) for a in args]
    except ValueError as exc:
        raise RegimeError(f"bad numeric argument in regime spec {spec!r}") from exc
    cls = FAMILIES.get(name)
    if cls is None or cls is Table:
        inline = sorted(tag for tag, family in FAMILIES.items() if family is not Table)
        raise RegimeError(f"unknown regime {name!r}; expected one of {inline} (table via JSON config)")
    arity = len(dataclasses.fields(cls))
    if len(values) != arity:
        raise RegimeError(f"regime {name!r} takes {arity} parameter(s), got {len(values)}")
    return cls(*values)


def describe(regime: MortalityRegime) -> str:
    """Short human-readable form used in report labels."""
    if isinstance(regime, Constant):
        return f"c={regime.c:g}"
    if isinstance(regime, InitialPower):
        return f"c_n={regime.a:g}*n^-{regime.gamma:g}"
    if isinstance(regime, StatePower):
        return f"c_k={regime.a:g}*k^-{regime.gamma:g}"
    if isinstance(regime, JointPower):
        return f"c_kn=k^{regime.alpha:g}/n^{regime.beta:g}"
    return f"table[{len(regime.values)}]"
