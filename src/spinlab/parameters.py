"""The parameter report (the four order/disorder ratios of the pattern
structure and the derived alpha exponents) and the quantitative condition
checkers.

The thresholds involve an unspecified universal constant C; it is a
caller-supplied input (default 1) and every checker reports per-inequality
margins, so verdicts are relative to the supplied constant.

Conventions: a maximum over an empty candidate set is 0, and -log 0 is +inf
with saturating comparisons.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import errors, kbipartite, patterns
from .system import MAX_FLOAT_INT, emit_number, log_number, to_float

INF = math.inf
# bits of one power lambda^{2d} beyond which rho_bulk_star_of leaves exact
# arithmetic for log space
EXACT_BITS = 2 ** 20


def neg_log(x):
    """-log(x) with -log(0) = +inf."""
    x = float(x)
    if x < 0:
        raise ValueError("negative argument")
    if x == 0.0:
        return INF
    return -math.log(x)


def _log_times(k, x):
    """log(k x) for an integer k >= 1 and a ratio x > 0 (a float, or a
    Fraction of any size): math.log(k * x) where that float product is
    finite, log k + log x where it overflows."""
    try:
        p = k * float(x)
    except OverflowError:
        p = INF
    return math.log(p) if p < INF else math.log(k) + log_number(x)


# ---------------------------------------------------------------------------
# report

@dataclass
class ParameterReport:
    rho_int: object
    rho_pat_bulk: object
    rho_pat_bdry: object
    rho_act: object
    omega_dom: object
    alpha0: float
    frak_q: float
    n_maximal: int
    n_dominant: int
    n_small_side: int
    n_large_side: int
    rho_hat_act: object
    d: int = None
    s: int = None
    alpha1: float = None
    rho_hat_bulk: float = None
    alpha2: float = None
    rho_bulk_star: float = None
    alpha3: float = None
    alpha_tilde_simple: float = None

    def to_dict(self):
        def num(x):
            if isinstance(x, Fraction):
                return emit_number(x)
            if x == INF:
                return "inf"
            return x

        return {k: num(v) for k, v in self.__dict__.items()}


def _alpha_arg(rho_bulk, rho_bdry, rho_int):
    """max{rho_bulk, 1-(1-rho_bdry)(1-sqrt(rho_int))}."""
    return max(float(rho_bulk),
               1.0 - (1.0 - float(rho_bdry)) * (1.0 - math.sqrt(float(rho_int))))


def alpha0_of(system):
    st = patterns.structure(system)
    return neg_log(_alpha_arg(st.rho_pat_bulk, st.rho_pat_bdry, st.rho_int))


def rho_hat_bulk_of(system, d, s):
    """Bulk ratio adjusted for a soft-interaction window of length s."""
    st = patterns.structure(system)
    if not st.bulk_pairs:  # no ratio to take, however large omega_dom is
        return 0.0
    omega = to_float(st.omega_dom)
    rho_int = to_float(st.rho_int)
    lam_s = to_float(st.lam_s)
    e = (s - 1) * system.n / (2 * d)
    best = 0.0
    for la, lb in st.bulk_pairs:
        try:
            base = 2 * d * lam_s / lb
            val = (la * lb / omega * (1.0 + rho_int ** s * lam_s / la)
                   * (base ** e if base < INF else math.exp(
                       e * (_log_times(2 * d, lam_s) - math.log(lb)))))
        except OverflowError:  # a window so long the ratio is unbounded
            val = INF
        best = max(best, val)
    return best


def _penalty(st, d):
    """The d-dependent entropy penalty subtracted from alpha1 and alpha2."""
    return (1.0 + (1.0 / 3.0 if st.rho_int != 0 else 0.0)) / (2 * d) \
        * math.log(len(st.maximal))


def _alpha2(system, d, s, pen):
    """(rho_hat_bulk, alpha2) at window length s, given _penalty(st, d)."""
    st = patterns.structure(system)
    rho_hat_bulk = rho_hat_bulk_of(system, d, s)
    return rho_hat_bulk, neg_log(
        _alpha_arg(rho_hat_bulk, st.rho_pat_bdry, st.rho_int)) - pen


def rho_bulk_star_of(system, d):
    """Bulk ratio with image-restricted weight counts (homomorphism only):
    the 2d-th root of the sum, over the non-dominant maximal patterns p, of
    lambda_restricted_power(A_p, 2d) lambda(B_p)^{2d}, over omega_dom.  The
    sum is exact while its powers stay within EXACT_BITS bits (rational
    mode) or the float range (float mode), and taken in log space beyond."""
    st = patterns.structure(system)
    if st.rho_int != 0:
        raise errors.Alt3OnWeightedSystem(
            "rho_bulk_star is defined for homomorphism systems only")
    n = 2 * d
    pats = [p for p in st.maximal if p not in set(st.dominant)]
    if n * max((_bits(system, p.a) + _bits(system, p.b) for p in pats),
               default=0) <= (EXACT_BITS if system.mode == "rational"
                              else 1000):
        # the patterns share few bases: each power is taken once
        power = functools.cache(lambda x: x ** n)
        total = sum(kbipartite.lambda_restricted_power(system, p.a, n, power)
                    * power(system.lambda_mask(p.b)) for p in pats)
        if total == 0:
            return 0.0
        try:
            root = float(total) ** (1.0 / n)
        except OverflowError:  # a Fraction beyond the float range
            root = math.exp(log_number(total) / n)
        return root / to_float(st.omega_dom)
    # the same signed terms lambda_k^n lambda(B_p)^n, relative to the largest
    terms = [(sign, log_number(lam) + log_number(lam_b))
             for p in pats if (lam_b := system.lambda_mask(p.b))
             for sign, m in kbipartite.exclusion_terms(system, p.a)
             if (lam := system.lambda_mask(m))]
    top = max((x for _, x in terms), default=0.0)
    total = math.fsum(sign * math.exp(n * (x - top)) for sign, x in terms)
    return math.exp(top + math.log(total) / n) / to_float(st.omega_dom) \
        if total > 0 else 0.0


def _bits(system, mask):
    """Bits of lambda(mask) in exact form; in float mode |log2| of it, as
    the powers must stay below 2^1000."""
    x = system.lambda_mask(mask)
    if system.mode == "rational":
        return x.numerator.bit_length() + x.denominator.bit_length()
    return abs(math.log2(x)) if x else 0.0


def compute_parameters(system, d=None, s=None) -> ParameterReport:
    st = patterns.structure(system)
    rho_int, rho_bdry = st.rho_int, st.rho_pat_bdry
    rep = ParameterReport(
        rho_int=rho_int,
        rho_pat_bulk=st.rho_pat_bulk,
        rho_pat_bdry=rho_bdry,
        rho_act=st.rho_act,
        omega_dom=st.omega_dom,
        alpha0=alpha0_of(system),
        frak_q=patterns.frak_q(system),
        n_maximal=len(st.maximal),
        n_dominant=len(st.dominant),
        n_small_side=st.n_small_side,
        n_large_side=st.n_large_side,
        rho_hat_act=st.rho_hat_act,
    )
    if d is not None:
        if d < 2:
            raise errors.ParamOutOfRange("d must be >= 2")
        rep.d = d
        pen = _penalty(st, d)
        rep.alpha1 = rep.alpha0 - pen
        rep.alpha_tilde_simple = rep.alpha0 * min(
            1.0, rep.alpha0 / (system.n + math.log(d))) if rep.alpha0 < INF else INF
        if s is not None:
            rep.s = s
            rep.rho_hat_bulk, rep.alpha2 = _alpha2(system, d, s, pen)
        if rho_int == 0:
            rep.rho_bulk_star = rho_bulk_star_of(system, d)
            rep.alpha3 = neg_log(max(rep.rho_bulk_star, float(rho_bdry)))
    return rep


# ---------------------------------------------------------------------------
# condition checkers

@dataclass
class Inequality:
    name: str
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool = False

    @property
    def margin(self):
        if self.vacuous:
            return INF
        if self.rhs == 0:
            return INF if self.lhs >= 0 else -INF
        return self.lhs / self.rhs

    def to_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "holds": self.holds, "vacuous": self.vacuous,
                "margin": self.margin}


@dataclass
class ConditionReport:
    condition: str
    d: int
    C: float
    s: int
    inequalities: list
    passes: bool

    def to_dict(self):
        return {"condition": self.condition, "d": self.d, "C": self.C,
                "s": self.s,
                "inequalities": [iq.to_dict() for iq in self.inequalities],
                "pass": self.passes}


def _ge(name, lhs, rhs, vacuous=False):
    return Inequality(name, lhs, rhs, holds=bool(vacuous or lhs >= rhs),
                      vacuous=vacuous)


def check_condition(system, d, which, C=1.0, s=None) -> ConditionReport:
    """Evaluate one of the quantitative long-range-order conditions literally
    with the supplied constants.  Each condition computes only the terms it
    reads: rho_bulk_star only for alt3.  alt2 reports the first candidate
    window length s (or the given s) that passes its window test, else the
    first.  alpha2 is concave in s (rho_hat_bulk is log-convex), so the
    windows that pass form an interval: a failing first window whose
    successor scores no higher ends the search, and otherwise two
    bisections find the peak and the first window that passes."""
    if d < 2:
        raise errors.ParamOutOfRange("d must be >= 2")
    if max(d, s or 0) > MAX_FLOAT_INT:
        raise errors.ParamOutOfRange("d and s must be at most 2^1000")
    if not (math.isfinite(C) and C > 0):
        raise errors.ParamOutOfRange("C must be finite and > 0")
    if s is not None and s < 1:
        raise errors.ParamOutOfRange("s must be >= 1")
    st = patterns.structure(system)
    alpha0 = alpha0_of(system)
    n = system.n
    fq = patterns.frak_q(system)
    rho_int = to_float(st.rho_int)
    logd = math.log(d)
    thr = C * (fq + logd) * math.sqrt(logd) / d ** 0.25
    ineqs = []
    s_used = None

    if which == "simple":
        ineqs.append(_ge("alpha0", alpha0,
                         C * n * logd ** 1.5 / d ** 0.25))
        rhs2 = n * _log_times(d, st.rho_act) ** 2 / d ** 0.75
        ineqs.append(_ge("interaction", neg_log(rho_int), rhs2,
                         vacuous=(rho_int == 0)))
    elif which == "alt1":
        alpha1 = alpha0 - _penalty(st, d)
        ineqs.append(_ge("alpha1", alpha1, thr))
        if rho_int == 0:
            ineqs.append(_ge("interaction", INF, 0.0, vacuous=True))
        else:
            lhs = neg_log(rho_int) / (4.0 * _log_times(d, st.rho_act))
            if alpha1 > 0:
                term = n / (2.0 * d) + 5.0 * n * _log_times(
                    2 * d, st.rho_act) / (alpha1 * d)
            else:
                term = INF
            ineqs.append(_ge("interaction", lhs, min(1.0, term)))
    elif which == "alt2":
        if rho_int == 0:
            s_lo = 0.0
        else:
            # unbounded for a float rho_hat_act of inf or a rho_int of 1.0
            neg_log_int = neg_log(rho_int)
            s_lo = 2.0 * _log_times(d, st.rho_hat_act) / neg_log_int \
                if neg_log_int > 0 else INF
            if s_lo == INF:
                raise errors.TooLarge("s_lo exceeds the float64 range")
        log_growth = _log_times(2 * d, st.rho_hat_act)
        s_cap = math.ceil(2 * d / n)
        pen = _penalty(st, d)
        alpha2 = functools.cache(lambda cand: _alpha2(system, d, cand, pen)[1])

        def bound(a2):
            return 1.0 + a2 * d / (2.0 * n * log_growth) \
                if log_growth > 0 else 1.0

        def window(cand):
            a2 = alpha2(cand)
            window_hi = min(s_cap, bound(a2) if a2 > 0 else 1.0)
            return [
                _ge("s_window_low", cand, s_lo),
                Inequality("s_window_high", cand, window_hi, holds=cand <= window_hi),
                _ge("alpha2", a2, thr),
            ]

        def passes(cand):
            return all(iq.holds for iq in window(cand))

        def score(cand):
            # concave in cand, as alpha2 is, and >= 0 where a candidate passes
            a2 = alpha2(cand)
            return min(a2 - thr, bound(a2) - cand)

        s_used = s if s is not None else max(1, math.ceil(s_lo))
        ineqs = window(s_used)
        last = min(s_used - 1 + min(s_cap, 10 ** 4), s_cap)
        if s is None and not passes(s_used) and s_used < last \
                and score(s_used + 1) > score(s_used):
            # the windows that pass form an interval around the peak of
            # score, if any do: find the peak, then the first before it
            lo, hi = s_used, last
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if score(mid + 1) > score(mid) else (lo, mid)
            if passes(hi):
                lo = s_used
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if passes(mid) else (mid, hi)
                s_used, ineqs = hi, window(hi)
    elif which == "alt3":
        if rho_int != 0:
            raise errors.Alt3OnWeightedSystem(
                "alt3 applies to homomorphism systems only")
        alpha3 = neg_log(max(rho_bulk_star_of(system, d),
                             float(st.rho_pat_bdry)))
        ineqs.append(_ge("alpha3", alpha3, thr))
    else:
        raise errors.ParamOutOfRange(f"unknown condition {which!r}")

    return ConditionReport(condition=which, d=d, C=C, s=s_used,
                           inequalities=ineqs,
                           passes=all(iq.holds for iq in ineqs))
