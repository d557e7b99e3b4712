"""Named model constructors and their published closed-form parameter values.

Every builder returns a SpinSystem.  Zero temperature (beta=inf) is encoded
as an exact interaction weight 0, keeping the system in rational mode; any
finite beta forces float mode through exp(-beta).

`expected_parameters` returns the closed forms for (omega_dom, 1/rho_bulk,
1/rho_bdry) used as test oracles; regimes that split on a parameter raise
NotTabulated at the boundary value, where the dominant patterns change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import errors
from .system import SpinSystem, make_system, state_count

MODEL_NAMES = (
    "af_potts", "af_potts_field", "af_ising_field", "hard_core",
    "hard_core_unequal", "widom_rowlinson", "clock", "beach", "multi_wr",
    "anti_wr", "multi_beach", "multi_occupancy_hc_v1", "multi_occupancy_hc_v2",
)

INF = math.inf


@dataclass
class CatalogEntry:
    name: str
    params: dict = field(default_factory=dict)

    def build(self) -> SpinSystem:
        return build(self.name, **self.params)

    def expected(self) -> dict:
        return expected_parameters(self.name, **self.params)


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


def _as_rational(x, name):
    try:
        v = Fraction(x)
    except (TypeError, ValueError) as e:
        raise errors.ParamOutOfRange(f"{name} must be rational, got {x!r}") from e
    return v


def _pos(x, name):
    v = _as_rational(x, name)
    if not v > 0:
        raise errors.ParamOutOfRange(f"{name} must be positive")
    return v


def build(name, **params) -> SpinSystem:
    if name not in MODEL_NAMES:
        raise errors.ParamOutOfRange(f"unknown model {name!r}")
    return _BUILDERS[name](**params)


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


# ---------------------------------------------------------------------------
# closed-form parameter values

def gsum(lam, a):
    """Sum of the first a powers of lam (exact; equals a at lam=1)."""
    return sum((lam ** i for i in range(a)), Fraction(0))


def _ratio(num, den):
    """num/den with den=0 mapped to +inf (a vanishing rho parameter)."""
    if den == 0:
        return INF
    return Fraction(num, den) if not isinstance(num, float) else num / den


def expected_parameters(name, **params) -> dict:
    """Closed forms for omega_dom, 1/rho_bulk, 1/rho_bdry (exact rationals;
    math.inf marks a vanishing rho)."""
    if name == "af_potts":
        q = int(params["q"])
        if q < 3:
            raise errors.NotTabulated("af_potts tabulated for q >= 3")
        lo, hi = q // 2, (q + 1) // 2
        omega = Fraction(lo * hi)
        if lo == 1:
            inv_bulk = INF
        else:
            inv_bulk = (1 + Fraction(1, lo - 1)) * (1 - Fraction(1, hi + 1))
        inv_bdry = 1 + Fraction(1, hi - 1)
        return {"omega_dom": omega, "inv_rho_bulk": inv_bulk, "inv_rho_bdry": inv_bdry}

    if name == "beach":
        lam = _pos(params["lam"], "lam")
        if lam == 1:
            raise errors.NotTabulated("beach regimes split at lam=1")
        if lam > 1:
            omega = (1 + lam) ** 2
            inv_bulk = min(Fraction((1 + lam) ** 2, 4),
                           Fraction((1 + lam) ** 2, 2 + lam))
            inv_bdry = 1 + lam
        else:
            omega = Fraction(4)
            inv_bulk = min(Fraction(4, 2 + lam), Fraction(4, (1 + lam) ** 2))
            inv_bdry = Fraction(2)
        return {"omega_dom": omega, "inv_rho_bulk": inv_bulk, "inv_rho_bdry": inv_bdry}

    if name == "clock":
        q, m = int(params["q"]), int(params["m"])
        if not (1 <= m and 4 * m < q):
            raise errors.ParamOutOfRange("clock requires 1 <= m < q/4")
        return {"omega_dom": Fraction((m + 1) ** 2),
                "inv_rho_bulk": 1 + Fraction(1, m * (m + 2)),
                "inv_rho_bdry": 1 + Fraction(1, m)}

    if name == "hard_core":
        lam = _pos(params["lam"], "lam")
        return {"omega_dom": 1 + lam,
                "inv_rho_bulk": INF,
                "inv_rho_bdry": 1 + lam}

    if name == "widom_rowlinson":
        lam = _pos(params["lam"], "lam")
        return {"omega_dom": (1 + lam) ** 2,
                "inv_rho_bulk": 1 + Fraction(lam ** 2, 1 + 2 * lam),
                "inv_rho_bdry": 1 + lam}

    if name == "multi_occupancy_hc_v2":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        lo, hi = q // 2, (q + 1) // 2
        omega = gsum(lam, lo + 1) * gsum(lam, hi + 1)
        inv_bulk = _ratio(gsum(lam, lo + 1) * gsum(lam, hi + 1),
                          gsum(lam, lo) * gsum(lam, hi + 2))
        inv_bdry = _ratio(gsum(lam, hi + 1), gsum(lam, hi))
        return {"omega_dom": omega, "inv_rho_bulk": inv_bulk, "inv_rho_bdry": inv_bdry}

    if name == "multi_wr":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        if lam == q - 2:
            raise errors.NotTabulated("multi_wr regimes split at lam=q-2")
        if lam < q - 2:
            omega = 1 + q * lam
            return {"omega_dom": omega,
                    "inv_rho_bulk": Fraction(omega, (1 + lam) ** 2),
                    "inv_rho_bdry": Fraction(omega, 1 + lam)}
        return {"omega_dom": (1 + lam) ** 2,
                "inv_rho_bulk": Fraction((1 + lam) ** 2, 1 + q * lam),
                "inv_rho_bdry": 1 + lam}

    if name == "anti_wr":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        lo, hi = q // 2, (q + 1) // 2
        omega = (1 + lam * lo) * (1 + lam * hi)
        return {"omega_dom": omega,
                "inv_rho_bulk": Fraction(omega,
                                         (1 + lam * (lo - 1)) * (1 + lam * (hi + 1))),
                "inv_rho_bdry": Fraction(1 + lam * hi, 1 + lam * (hi - 1))}

    if name == "multi_beach":
        q = int(params["q"])
        lam = _pos(params["lam"], "lam")
        if lam == q - 1:
            raise errors.NotTabulated("multi_beach regimes split at lam=q-1")
        if lam > q - 1:
            return {"omega_dom": (1 + lam) ** 2,
                    "inv_rho_bulk": Fraction((1 + lam) ** 2,
                                             max(Fraction(q * q), q + lam)),
                    "inv_rho_bdry": 1 + lam}
        return {"omega_dom": Fraction(q * q),
                "inv_rho_bulk": Fraction(q * q,
                                         max((1 + lam) ** 2, q + lam)),
                "inv_rho_bdry": Fraction(q)}

    raise errors.NotTabulated(name)
