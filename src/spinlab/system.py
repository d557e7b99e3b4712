"""Spin systems: states, activities, pair interactions, and the
weight-preserving / structural transformations between them.

A spin system is a finite set of states S with strictly positive single-site
activities lam[i] and a symmetric non-negative interaction matrix lam[i][j].
The weight of a configuration f on a graph is
prod_v lam[f(v)] * prod_{uv in E} lam[f(u)][f(v)].

Arithmetic mode is uniform per system: "rational" (exact Fractions) or
"float".  Rational numbers serialize as "p/q" strings in JSON.

A SpinSystem is frozen, and what other modules derive from it (the pattern
structure, the scaled weights, tables of local weights or contents) is
kept in its one memo, each under its builder's key, by derived().
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import errors

MAX_STATES = 64
# the largest dimension d (and alt2 window s) taken: inside the float range,
# with room for the small multiples such as 2d and 4d that formulas take
MAX_FLOAT_INT = 2 ** 1000


# ---------------------------------------------------------------------------
# numbers

def parse_number(x, mode):
    """Parse a JSON-level number into the system's arithmetic mode."""
    if isinstance(x, float) and math.isnan(x):
        raise errors.SchemaError(f"not a number: {x!r}")
    if isinstance(x, float) and math.isinf(x):  # such as a JSON 1e400
        raise errors.TooLarge("a value exceeds the float64 range")
    if mode == "rational":
        if isinstance(x, bool):
            raise errors.SchemaError(f"not a number: {x!r}")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as e:
                raise errors.SchemaError(f"bad rational literal {x!r}") from e
        if isinstance(x, float):
            if x == int(x):
                return Fraction(int(x))
            raise errors.SchemaError(
                f"non-integral float {x!r} in rational mode; use a 'p/q' string")
        raise errors.SchemaError(f"not a number: {x!r}")
    elif mode == "float":
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError) as e:
                raise errors.SchemaError(f"bad numeric literal {x!r}") from e
        if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
            return to_float(x)
        raise errors.SchemaError(f"not a number: {x!r}")
    raise errors.SchemaError(f"unknown mode {mode!r}")


def emit_number(x):
    """Serialize a number for JSON output ('p/q' strings in rational mode).
    A rational with more digits than Python's int string limit (4,300 by
    default) is refused."""
    if isinstance(x, Fraction):
        try:
            text = f"{x.numerator}/{x.denominator}"
        except ValueError:
            raise errors.TooLarge(
                "a number has more digits than can be printed") from None
        return int(x) if x.denominator == 1 else text
    return x


def to_float(x) -> float:
    """A number as a float; one beyond the float64 range is refused."""
    try:
        return float(x)
    except OverflowError:
        raise errors.TooLarge("a value exceeds the float64 range") from None


def check_float_z(z, positive) -> None:
    """Refuse a float Z beyond float64, and a Z of 0 where positive(), the
    same sum on booleans (is each weight positive), is not: an underflow."""
    if not z < math.inf:
        raise errors.TooLarge("Z exceeds the float64 range")
    if z == 0 and positive():
        raise errors.TooLarge("Z underflows the float64 range")


def log_number(x) -> float:
    """Natural log of a positive int, float or Fraction of any size."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class SpinSystem:
    """A spin system; frozen, since what is derived from it is kept."""
    states: tuple
    activities: tuple
    interactions: tuple  # tuple of tuples, symmetric
    mode: str  # "rational" | "float"
    # what other code derives from the system, by key; see derived()
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def derived(self, key, build=None):
        """The value kept under key, built on first use as build(self), or
        as key(self) when no build is given: a builder that reads only the
        system is its own key, so a lookup allocates nothing."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = (build or key)(self)
            return value

    @property
    def n(self):
        return len(self.states)

    def zero(self):
        return Fraction(0) if self.mode == "rational" else 0.0

    def one(self):
        return Fraction(1) if self.mode == "rational" else 1.0

    @property
    def max_interaction(self):
        return max(v for row in self.interactions for v in row)

    def full_mask(self):
        return (1 << self.n) - 1

    def lambda_mask(self, mask):
        """Sum of activities over a state bitmask, kept in the memo."""
        return self.derived((SpinSystem.lambda_mask, mask),
                            lambda _: self._lambda_sum(mask))

    def _lambda_sum(self, mask):
        # left to right, so that a float sum is the same on every call
        total = self.zero()
        i = 0
        while mask:
            if mask & 1:
                total += self.activities[i]
            mask >>= 1
            i += 1
        return total

    def mask_states(self, mask):
        return [i for i in range(self.n) if mask >> i & 1]

    def labels(self, mask) -> str:
        """The labels of the states in a bitmask, comma-separated."""
        return ",".join(self.states[i] for i in self.mask_states(mask))

    def scaled(self) -> "ScaledWeights":
        """The weights on a common integer scale (rational mode), or as they
        are (float mode); see ScaledWeights.  Built once per system."""
        return self.derived(_scale)

    def to_dict(self):
        return {
            "states": list(self.states),
            "activities": [emit_number(a) for a in self.activities],
            "interactions": [[emit_number(v) for v in row] for row in self.interactions],
            "mode": self.mode,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class ScaledWeights:
    """Weights for exact sums.  In rational mode acts[i] = la * lam[i] and
    inter[i][j] = li * lam[i][j] are Python ints, la and li being the lcm of
    the activity and of the interaction denominators, so a weight sum over a
    graph runs on ints and is divided once at the end; in float mode the
    weights are the system's own and la = li = 1."""
    acts: tuple
    inter: tuple
    la: int = 1
    li: int = 1
    exact: bool = False

    def unscale(self, total, n_vertices: int, n_edges: int):
        """A weight sum over a graph with n_vertices and n_edges, computed
        with these weights, in the system's arithmetic."""
        if self.exact:
            return Fraction(total, self.la ** n_vertices * self.li ** n_edges)
        return float(total)


def _scale(system: SpinSystem) -> ScaledWeights:
    if system.mode != "rational":
        return ScaledWeights(system.activities, system.interactions)
    la = math.lcm(*(a.denominator for a in system.activities))
    li = math.lcm(*(v.denominator for row in system.interactions
                    for v in row))
    return ScaledWeights(
        tuple(int(a * la) for a in system.activities),
        tuple(tuple(int(v * li) for v in row) for row in system.interactions),
        la, li, exact=True)


# ---------------------------------------------------------------------------
# validation / IO

def state_count(n: int) -> int:
    """A number of states, refused above MAX_STATES; the catalog checks
    its q-dependent counts here before it builds any table."""
    if n > MAX_STATES:
        raise errors.SchemaError(f"too many states ({n} > {MAX_STATES})")
    return n


def validate_system(raw: dict) -> SpinSystem:
    """Validate a parsed spec dict and build a SpinSystem.

    Enforces: positive activities, bit-exact symmetry, at least one positive
    interaction, |S| <= 64.
    """
    if not isinstance(raw, dict):
        raise errors.SchemaError("system spec must be a JSON object")
    for key in ("states", "activities", "interactions"):
        if key not in raw:
            raise errors.SchemaError(f"missing key {key!r}")
        if not isinstance(raw[key], list):
            raise errors.SchemaError(f"{key!r} must be a list")
    mode = raw.get("mode", "rational")
    if mode not in ("rational", "float"):
        raise errors.SchemaError(f"mode must be 'rational' or 'float', got {mode!r}")
    states = tuple(str(s) for s in raw["states"])
    n = len(states)
    if n == 0:
        raise errors.SchemaError("empty state list")
    state_count(n)
    if len(set(states)) != n:
        raise errors.SchemaError("duplicate state labels")
    acts = [parse_number(a, mode) for a in raw["activities"]]
    if len(acts) != n:
        raise errors.SchemaError("activities length mismatch")
    for i, a in enumerate(acts):
        if not a > 0:
            raise errors.NonPositiveActivity(f"activity of state {states[i]!r} is {a}")
    rows = raw["interactions"]
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n
                             for r in rows):
        raise errors.SchemaError("interaction matrix must be n x n")
    inter = [[parse_number(v, mode) for v in row] for row in rows]
    for i in range(n):
        for j in range(i + 1, n):
            if inter[i][j] != inter[j][i]:
                raise errors.NonSymmetricInteractions(
                    f"lam[{states[i]},{states[j]}]={inter[i][j]} != "
                    f"lam[{states[j]},{states[i]}]={inter[j][i]}")
    for i in range(n):
        for j in range(n):
            if inter[i][j] < 0:
                raise errors.SchemaError("negative interaction weight")
    if all(v == 0 for row in inter for v in row):
        raise errors.AllZeroInteractions("all pair interactions are zero")
    return SpinSystem(states=states,
                      activities=tuple(acts),
                      interactions=tuple(tuple(r) for r in inter),
                      mode=mode)


def load_system(path) -> SpinSystem:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise errors.SchemaError(f"cannot read {path}: {e.strerror}") from e
    except ValueError as e:
        raise errors.SchemaError(f"invalid JSON in {path}: {e}") from e
    return validate_system(raw)


def make_system(states, activities, interactions, mode="rational") -> SpinSystem:
    """Convenience constructor going through full validation."""
    return validate_system({
        "states": list(states),
        "activities": list(activities),
        "interactions": [list(r) for r in interactions],
        "mode": mode,
    })


# ---------------------------------------------------------------------------
# transformations

def reweight(system: SpinSystem, multipliers, d: int) -> SpinSystem:
    """Rescale activities by m_i and interactions by (m_i m_j)^(-1/2d).

    Describes the same Gibbs measure on any 2d-regular host graph.  Output is
    float mode because of the fractional powers.  A non-finite multiplier,
    and a pair product or positive weight that leaves the float range (0
    or inf), are refused.
    """
    if len(multipliers) != system.n:
        raise errors.SchemaError("multiplier count mismatch")
    if not 1 <= d <= MAX_FLOAT_INT:
        raise errors.ParamOutOfRange("d must be between 1 and 2^1000")
    ms = [float(m) for m in multipliers]
    for m in ms:
        if not m > 0:
            raise errors.NonPositiveMultiplier(str(m))
    acts = [to_float(a) * m for a, m in zip(system.activities, ms)]
    pairs = [a * b for a in ms for b in ms]
    if not all(0 < x < math.inf for x in ms + pairs + acts):
        raise errors.ParamOutOfRange(
            "multipliers must be finite, with every pair product and "
            "reweighted activity inside the float range")
    inter = [[(ms[i] * ms[j]) ** (-1.0 / (2 * d))
              * to_float(system.interactions[i][j])
              for j in range(system.n)] for i in range(system.n)]
    if any(v and not 0 < x < math.inf
           for r, row in zip(inter, system.interactions) for x, v in zip(r, row)):
        raise errors.ParamOutOfRange(
            "a reweighted interaction leaves the float range")
    return make_system(system.states, acts, inter, mode="float")


def product(sys1: SpinSystem, sys2: SpinSystem) -> SpinSystem:
    """Product system on S1 x S2 with componentwise weights."""
    if sys1.mode != sys2.mode:
        raise errors.SchemaError("product requires matching arithmetic modes")
    states = [f"({a},{b})" for a in sys1.states for b in sys2.states]
    pairs = [(i, j) for i in range(sys1.n) for j in range(sys2.n)]
    acts = [sys1.activities[i] * sys2.activities[j] for (i, j) in pairs]
    inter = [[sys1.interactions[i][k] * sys2.interactions[j][l]
              for (k, l) in pairs] for (i, j) in pairs]
    return make_system(states, acts, inter, mode=sys1.mode)


def project_from_doubled(system: SpinSystem) -> SpinSystem:
    """Collapse a system living on G x K2 onto G.

    New states are the positively-interacting ordered pairs (i,j); activities
    lam_i lam_j lam[i][j]; interactions lam[i][k] lam[j][l].
    """
    pairs = [(i, j) for i in range(system.n) for j in range(system.n)
             if system.interactions[i][j] > 0]
    if not pairs:
        raise errors.EmptyProjectedSpace("no positive interaction")
    states = [f"({system.states[i]},{system.states[j]})" for (i, j) in pairs]
    acts = [system.activities[i] * system.activities[j] * system.interactions[i][j]
            for (i, j) in pairs]
    inter = [[system.interactions[i][k] * system.interactions[j][l]
              for (k, l) in pairs] for (i, j) in pairs]
    return make_system(states, acts, inter, mode=system.mode)


def bipartite_cover(system: SpinSystem):
    """Two-layer cover: states S x {0,1}, edges only across layers.

    Returns (cover_system, phi) where phi maps cover state index -> base state
    index.  The interaction between (i,0) and (j,1) is lam[i][j]; same-layer
    interactions are 0.
    """
    n = system.n
    states = [f"({s},0)" for s in system.states] + [f"({s},1)" for s in system.states]
    acts = list(system.activities) * 2
    zero = system.zero()
    inter = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            w = system.interactions[i][j]
            inter[i][n + j] = w
            inter[n + j][i] = w
    phi = list(range(n)) * 2
    return make_system(states, acts, inter, mode=system.mode), phi
