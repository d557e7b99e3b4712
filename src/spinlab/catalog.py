"""Named model constructors.

Every builder returns a SpinSystem.  Zero temperature (beta=inf) is encoded
as an exact interaction weight 0, keeping the system in rational mode; any
finite beta forces float mode through exp(-beta).
"""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

from . import errors
from .system import SpinSystem, make_system, parse_number, state_count

INF = math.inf


def _boltzmann(beta, energy=1):
    """exp(-beta * energy) and the arithmetic mode, with beta=inf giving an
    exact 0 (rational mode stays exact)."""
    if beta is None:
        raise errors.ParamOutOfRange("beta is required")
    if beta == INF or beta == "inf":
        return Fraction(0), "rational"
    try:
        beta = float(beta)
    except (TypeError, ValueError):
        raise errors.ParamOutOfRange(
            f"beta must be a number or inf, got {beta!r}") from None
    if not beta >= 0:  # NaN fails too
        raise errors.ParamOutOfRange("beta must be >= 0")
    return math.exp(-energy * beta), "float"


def _int(x, name):
    """An integer model parameter."""
    try:
        return int(x)
    except (TypeError, ValueError, OverflowError):
        raise errors.ParamOutOfRange(
            f"{name} must be an integer, got {x!r}") from None


def _pos(x, name):
    """A positive rational model parameter."""
    try:
        v = parse_number(x, "rational")
    except errors.SchemaError:
        raise errors.ParamOutOfRange(
            f"{name} must be rational, got {x!r}") from None
    if not v > 0:
        raise errors.ParamOutOfRange(f"{name} must be positive")
    return v


def build(name, **params) -> SpinSystem:
    """The named model; an unknown name or a parameter the model does not
    take is refused (ParamOutOfRange)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise errors.ParamOutOfRange(f"unknown model {name!r}")
    extra = sorted(params.keys() - inspect.signature(builder).parameters)
    if extra:
        raise errors.ParamOutOfRange(f"{name} takes no {', '.join(extra)}")
    return builder(**params)


def _build_af_potts(q=None, beta=INF):
    q = _int(q, "q")
    if q < 2:
        raise errors.ParamOutOfRange("af_potts requires q >= 2")
    w, mode = _boltzmann(beta)
    states = [str(i) for i in range(1, state_count(q) + 1)]
    one = Fraction(1) if mode == "rational" else 1.0
    acts = [one] * q
    inter = [[one if i != j else w for j in range(q)] for i in range(q)]
    return make_system(states, acts, inter, mode=mode)


def _build_af_potts_field(q=None, beta=INF, lam=None):
    q = _int(q, "q")
    if q < 2:
        raise errors.ParamOutOfRange("af_potts_field requires q >= 2")
    lam = _pos(lam, "lam")
    w, mode = _boltzmann(beta)
    states = [str(i) for i in range(1, state_count(q) + 1)]
    acts = [lam if i == 0 else Fraction(1) for i in range(q)]
    one = Fraction(1)
    inter = [[one if i != j else w for j in range(q)] for i in range(q)]
    return make_system(states, acts, inter, mode=mode)


def _build_af_ising_field(beta=INF, lam=None):
    lam = _pos(lam, "lam")
    w, mode = _boltzmann(beta, energy=4)
    acts = [Fraction(1), lam]
    inter = [[Fraction(1), Fraction(1)], [Fraction(1), w]]
    return make_system(["0", "1"], acts, inter, mode=mode)


def _build_hard_core(lam=None):
    lam = _pos(lam, "lam")
    return make_system(["0", "1"],
                       [Fraction(1), lam],
                       [[1, 1], [1, 0]],
                       mode="rational")


def _build_hard_core_unequal(lam_e=None, lam_o=None):
    lam_e = _pos(lam_e, "lam_e")
    lam_o = _pos(lam_o, "lam_o")
    acts = [lam_e, Fraction(1), Fraction(1), lam_o]
    inter = [[1 if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)]
    return make_system(["0", "1", "2", "3"], acts, inter, mode="rational")


def _build_widom_rowlinson(lam=None):
    lam = _pos(lam, "lam")
    labels = [-1, 0, 1]
    acts = [lam ** abs(i) for i in labels]
    inter = [[0 if i * j == -1 else 1 for j in labels] for i in labels]
    return make_system([str(i) for i in labels], acts, inter, mode="rational")


def _build_clock(q=None, m=None, beta=INF):
    q = _int(q, "q")
    m = _int(m, "m")
    if not (1 <= m and 4 * m < q):
        raise errors.ParamOutOfRange("clock requires 1 <= m < q/4")
    w, mode = _boltzmann(beta)
    one = Fraction(1) if mode == "rational" else 1.0

    def dist(i, j):
        return min((i - j) % q, (j - i) % q)

    acts = [one] * state_count(q)
    inter = [[one if dist(i, j) <= m else w for j in range(q)] for i in range(q)]
    return make_system([str(i) for i in range(q)], acts, inter, mode=mode)


def _build_beach(lam=None):
    lam = _pos(lam, "lam")
    labels = [-2, -1, 1, 2]
    acts = [lam ** (abs(i) - 1) for i in labels]
    inter = [[1 if i * j >= -1 else 0 for j in labels] for i in labels]
    return make_system([str(i) for i in labels], acts, inter, mode="rational")


def _build_multi_wr(q=None, lam=None):
    q = _int(q, "q")
    if q < 1:
        raise errors.ParamOutOfRange("multi_wr requires q >= 1")
    lam = _pos(lam, "lam")
    labels = list(range(state_count(q + 1)))
    acts = [Fraction(1) if i == 0 else lam for i in labels]
    inter = [[1 if (i * j == 0 or i == j) else 0 for j in labels] for i in labels]
    return make_system([str(i) for i in labels], acts, inter, mode="rational")


def _build_anti_wr(q=None, lam=None):
    q = _int(q, "q")
    if q < 2:
        raise errors.ParamOutOfRange("anti_wr requires q >= 2")
    lam = _pos(lam, "lam")
    labels = list(range(state_count(q + 1)))
    acts = [Fraction(1) if i == 0 else lam for i in labels]
    inter = [[1 if (i * j == 0 or i != j) else 0 for j in labels] for i in labels]
    return make_system([str(i) for i in labels], acts, inter, mode="rational")


def _build_multi_beach(q=None, lam=None):
    q = _int(q, "q")
    if q < 1:
        raise errors.ParamOutOfRange("multi_beach requires q >= 1")
    lam = _pos(lam, "lam")
    state_count(2 * q)
    labels = [(s, i) for s in (0, 1) for i in range(1, q + 1)]
    acts = [lam if s else Fraction(1) for (s, _) in labels]
    inter = [[1 if ((s == 0 and t == 0) or i == j) else 0
              for (t, j) in labels] for (s, i) in labels]
    states = [f"({s},{i})" for (s, i) in labels]
    return make_system(states, acts, inter, mode="rational")


def _build_multi_occupancy_hc_v1(q=None, lam=None):
    q = _int(q, "q")
    if q < 1:
        raise errors.ParamOutOfRange("multi_occupancy_hc requires q >= 1")
    lam = _pos(lam, "lam")
    acts = [lam ** i / math.factorial(i) for i in range(state_count(q + 1))]
    inter = [[1 if i + j <= q else 0 for j in range(q + 1)] for i in range(q + 1)]
    return make_system([str(i) for i in range(q + 1)], acts, inter, mode="rational")


def _build_multi_occupancy_hc_v2(q=None, lam=None):
    q = _int(q, "q")
    if q < 1:
        raise errors.ParamOutOfRange("multi_occupancy_hc requires q >= 1")
    lam = _pos(lam, "lam")
    acts = [lam ** i for i in range(state_count(q + 1))]
    inter = [[1 if i + j <= q else 0 for j in range(q + 1)] for i in range(q + 1)]
    return make_system([str(i) for i in range(q + 1)], acts, inter, mode="rational")


_BUILDERS = {
    "af_potts": _build_af_potts,
    "af_potts_field": _build_af_potts_field,
    "af_ising_field": _build_af_ising_field,
    "hard_core": _build_hard_core,
    "hard_core_unequal": _build_hard_core_unequal,
    "widom_rowlinson": _build_widom_rowlinson,
    "clock": _build_clock,
    "beach": _build_beach,
    "multi_wr": _build_multi_wr,
    "anti_wr": _build_anti_wr,
    "multi_beach": _build_multi_beach,
    "multi_occupancy_hc_v1": _build_multi_occupancy_hc_v1,
    "multi_occupancy_hc_v2": _build_multi_occupancy_hc_v2,
}
