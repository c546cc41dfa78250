"""Payoff definitions with discounting and the ordered regression basis families.

Three contract kinds are supported: a put on a single stock, a best-of call on
two assets, and an equally weighted basket call on four assets.  Basis families
are nested: the M-term family is always a prefix of the larger families for
the same contract, with the constant first and the discounted payout second.
Monomial terms are evaluated on raw prices; conditioning is the regression
solver's problem, not the basis's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PUT_SINGLE = "put_single"
BESTOF_CALL = "bestof_call"
BASKET_CALL = "basket_call"
PAYOFF_KINDS = (PUT_SINGLE, BESTOF_CALL, BASKET_CALL)

N_ASSETS = {PUT_SINGLE: 1, BESTOF_CALL: 2, BASKET_CALL: 4}

# The basket averages its four assets with equal weights.
BASKET_WEIGHTS = np.full(N_ASSETS[BASKET_CALL], 0.25)


@dataclass(frozen=True, eq=False)
class PayoffSpec:
    """Contract payoff: kind and strike.  Every kind pays max(., 0)."""

    kind: str
    strike: float

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}; expected one of {PAYOFF_KINDS}")
        if not self.strike > 0.0:
            raise ValueError("strike must be strictly positive")

    @property
    def n_assets(self) -> int:
        return N_ASSETS[self.kind]


def discounted_payout(spec: PayoffSpec, states: np.ndarray, t: float, rate: float) -> np.ndarray:
    """exp(-rate * t) times the exercise value of each row of an (N, J) batch
    of states.  Non-negative for every supported kind."""
    s = np.asarray(states, dtype=float)
    if s.ndim != 2 or s.shape[1] != spec.n_assets:
        raise ValueError(
            f"{spec.kind} expects (N, J) states of J = {spec.n_assets} asset(s), got shape {s.shape}"
        )
    if spec.kind == PUT_SINGLE:
        raw = np.maximum(spec.strike - s[:, 0], 0.0)
    elif spec.kind == BESTOF_CALL:
        raw = np.maximum(s.max(axis=1) - spec.strike, 0.0)
    else:
        raw = np.maximum(s @ BASKET_WEIGHTS - spec.strike, 0.0)
    return math.exp(-rate * t) * raw


@dataclass(frozen=True)
class BasisTerm:
    """One regressor: the constant, the payoff, or a price monomial."""

    kind: str  # "const" | "payoff" | "mono"
    exponents: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "const":
            return "1"
        if self.kind == "payoff":
            return "Z"
        parts = []
        for j, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"S{j + 1}")
            elif e > 1:
                parts.append(f"S{j + 1}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Ordered list of M regressors for one contract kind."""

    case: str
    terms: tuple[BasisTerm, ...]

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


def _mono(*exponents: int) -> BasisTerm:
    return BasisTerm("mono", tuple(exponents))


# Best-of family, degree-graded and lexicographic within degree; prefixes at
# M = 4 (linear), 7 (quadratic), 11 (cubic).
_BESTOF_TERMS = (
    BasisTerm("const"),
    BasisTerm("payoff"),
    _mono(1, 0),
    _mono(0, 1),
    _mono(2, 0),
    _mono(1, 1),
    _mono(0, 2),
    _mono(3, 0),
    _mono(2, 1),
    _mono(1, 2),
    _mono(0, 3),
)
_BESTOF_M = (4, 7, 11)

# Basket family: linear terms, then pure squares, then cross products, so the
# M = 6 and M = 10 subsets are prefixes of the 16-term degree-2 family.
_BASKET_TERMS = (
    (BasisTerm("const"), BasisTerm("payoff"))
    + tuple(_mono(*(1 if j == k else 0 for j in range(4))) for k in range(4))
    + tuple(_mono(*(2 if j == k else 0 for j in range(4))) for k in range(4))
    + tuple(
        _mono(*(1 if j in (a, b) else 0 for j in range(4)))
        for a in range(4)
        for b in range(a + 1, 4)
    )
)
_BASKET_M = (6, 10, 16)


def basis_family(case: str, m: int) -> BasisSpec:
    """First m terms of the fixed regressor ordering for the contract kind.

    Supported sizes: put_single takes any m >= 2 (constant, payoff, then
    rising powers of the price); bestof_call takes m in {4, 7, 11};
    basket_call takes m in {6, 10, 16}.
    """
    if case == PUT_SINGLE:
        if m < 2:
            raise ValueError(f"put_single basis needs m >= 2, got {m}")
        terms = (BasisTerm("const"), BasisTerm("payoff")) + tuple(
            _mono(k) for k in range(1, m - 1)
        )
        return BasisSpec(case, terms)
    if case == BESTOF_CALL:
        if m not in _BESTOF_M:
            raise ValueError(f"bestof_call basis supports m in {_BESTOF_M}, got {m}")
        return BasisSpec(case, _BESTOF_TERMS[:m])
    if case == BASKET_CALL:
        if m not in _BASKET_M:
            raise ValueError(f"basket_call basis supports m in {_BASKET_M}, got {m}")
        return BasisSpec(case, _BASKET_TERMS[:m])
    raise ValueError(f"unknown payoff kind {case!r}; expected one of {PAYOFF_KINDS}")


def _power(s: np.ndarray, e: int, out: np.ndarray) -> np.ndarray:
    """s ** e written into out, bit for bit: numpy squares by a product and
    takes higher powers from pow."""
    if e == 1:
        out[:] = s
        return out
    if e == 2:
        return np.multiply(s, s, out=out)
    return np.power(s, e, out=out)


def design_matrix(spec: BasisSpec, states: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(N, M) matrix of basis term values over a batch of states.

    Column 0 is the constant 1 and the payoff column equals z, which must hold
    the discounted payout of each row's state at the date in question.

    The states are gathered once, asset-major, and each term is written as one
    contiguous row of a term-major buffer; the result is its transposed view.
    Every entry is bit-identical to the per-column formula
    ones * s_1 ** e_1 * s_2 ** e_2 ..., since the product with ones is exact.
    """
    assets = np.ascontiguousarray(np.asarray(states, dtype=float).T)
    terms = np.empty((spec.m, assets.shape[1]))
    scratch = np.empty(assets.shape[1])
    for row, term in zip(terms, spec.terms):
        factors = [(assets[j], e) for j, e in enumerate(term.exponents) if e]
        if term.kind == "payoff":
            row[:] = z
        elif not factors:
            row[:] = 1.0
        else:
            _power(*factors[0], out=row)
            for s, e in factors[1:]:
                np.multiply(row, s if e == 1 else _power(s, e, scratch), out=row)
    return terms.T
