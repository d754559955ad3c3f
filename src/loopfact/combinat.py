"""Exact combinatorics of the residue coefficient of the triangular factor.

The residue coefficient of the upper-triangular correction, as a function
of the lower-family parameters, is a polynomial with nonnegative integer
coefficients in the parameters and their conjugates.  This module
evaluates it by a tail recursion over any commutative ring (one truncated
series division per parameter, O(S^3) ring products in all), expands it
exactly with a dict-backed polynomial type (conjugates treated as
independent letters), extracts the grouped coefficient tables, and checks
them against an independent signed enumeration of cluster decompositions.

Packed monomials.  The exact polynomial keys each monomial by one int of
B-bit fields (packed monomials as in Monagan and Pearce, "Sparse
polynomial multiplication and division in Maple 14"): field 0 holds the
plain weight sum(i * e(z_i)), field 2i - 1 the exponent of z_i, field 2i
that of zb_i.  A monomial product is one int add, the weight cap one mask
and compare; keys become IndexPairs only at table extraction.  The top
bit of every field is a guard: while the fields of both operands are
below 2^(B-1), their sum carries across no field boundary and a field
overflowed exactly when its guard bit is set.  Every product ORs its
output keys and raises ConsistencyViolation on a set guard bit.

Field bound, support S.  In row m of _suffix_table over the letters,
every monomial of cur[i] has (a) plain degree - barred degree = 1 and
plain weight - barred weight = i, and (b) plain degree <= m - i + 1.
Both hold for cur[m] = z_m.  Expanding G = R / (1 - wb R),

    nxt[i] = (1 + z_m zb_m) sum_s zb_m^s sum_{j_0+..+j_s = m-i} prod_t cur[m - j_t]

over row m - 1 with every j_t >= 1.  By (b) cur[m - j] has plain degree
<= j, so the product has plain degree <= m - i and the scale adds at
most 1.  (a) adds up: s + 1 factors of degree difference 1 against s
letters zb_m give 1, and weights give sum_t (m - j_t) - s m = i.  The
partial sums g_d and products r_j g_(d-j) are sub-sums of the same
expansions, with barred degree <= plain degree <= m.  So exponents are
at most S and plain weights at most S^2 (S^2 - S + 1 is reached).  A
weight cap only drops monomials, since weights add and are nonnegative.
Division by z_n lowers a field; uncapped, division by 1 + z_k zb_k forms
slices of the exact quotient, whose monomials divide the dividend's.
Capped, its tail holds junk products of plain weight <= cap, and every
monomial of group n has plain - barred weight = 1 - n, so barred weight
< cap + S.  Every field thus stays at most max(S^2, cap + S): 16-bit
fields hold S <= 181 and any cap below 32768 - S.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, count, product
from math import comb, factorial, prod
from operator import or_

import numpy as np

from .errors import CapExceeded, ConsistencyViolation, InvalidIndex, ParseError
from .laurent import LaurentSeries
from .rootsub import RootParams

__all__ = [
    "IndexPair",
    "CoefficientTable",
    "x1_recursion",
    "full_x",
    "b_sum",
    "coefficient_tables",
    "certify_tables",
    "cluster_coefficient",
    "enumerate_decompositions",
    "subindex_reductions",
    "s_identity_check",
    "zeta1_four_vars",
]


# --- tail recursion over a generic commutative ring -------------------


def _suffix_table(pairs):
    """Residue values of every suffix of a finite parameter sequence.

    pairs[k] = (value, conjugate_value); entries may be complex numbers,
    Fractions, or polynomial objects, anything supporting + and * with
    ints.  Returns {start: value of the residue on (w_start, .., w_M)}.

    Row m appends (w, wb) = pairs[m-1] to the rows 1..m-1 held in cur.
    With R(u) = sum_{j>=1} cur[m-j] u^j, every start i of the row reads
    one coefficient of the same series,

        nxt[i] = (1 + w wb) [u^(m-i)] R / (1 - wb R),

    and G = R / (1 - wb R) solves g_d = r_d + wb * sum_{j<d} r_j g_{d-j}.
    A row costs O(m^2) ring products, the whole table O(S^3).
    """
    cur = {}
    for m in range(1, len(pairs) + 1):
        w, wbar = pairs[m - 1]
        r = [None] + [cur[m - j] for j in range(1, m)]
        g = r[:2]  # g_1 = r_1
        for d in range(2, m):
            conv = r[1] * g[d - 1]
            for j in range(2, d):
                conv = conv + r[j] * g[d - j]
            g.append(r[d] + wbar * conv)
        scale = 1 + w * wbar
        nxt = {m: w}
        for i in range(m - 1, 0, -1):
            nxt[i] = scale * g[m - i]
        cur = nxt
    return cur


def x1_recursion(params: RootParams, count: int) -> complex:
    """Residue coefficient on the first `count` lower-family parameters."""
    if params.side != "zeta":
        raise ValueError("x1_recursion expects lower-family parameters")
    if params.support > count:
        raise ValueError(f"support {params.support} exceeds count {count}")
    if count == 0:
        return 0j
    vals = [complex(params.value_at(i)) for i in range(1, count + 1)]
    table = _suffix_table([(v, v.conjugate()) for v in vals])
    return complex(table[1])


def full_x(params: RootParams) -> LaurentSeries:
    """Positive-power series whose conjugate coefficients are the suffix
    residues; directly comparable with the triangular-data route."""
    if params.side != "zeta":
        raise ValueError("full_x expects lower-family parameters")
    if params.support == 0:
        return LaurentSeries.zero()
    vals = [complex(params.value_at(i)) for i in range(1, params.support + 1)]
    table = _suffix_table([(v, v.conjugate()) for v in vals])
    return LaurentSeries.from_dict(
        {j: complex(table[j]).conjugate() for j in table}
    )


def b_sum(params: RootParams, n: int, m: int) -> complex:
    """Hermitian pairing sum over the tail: sum_{k>=n} v_k conj(v_{k+m})."""
    if params.side != "zeta":
        raise ValueError("b_sum expects lower-family parameters")
    total = 0j
    for k in range(n, params.support + 1):
        total += complex(params.value_at(k)) * complex(params.value_at(k + m)).conjugate()
    return total


# --- exact polynomials, conjugates as independent letters -------------

# Width B of one packed monomial field; its top bit is the guard.  The
# module docstring proves every field stays at most max(S^2, cap + S).
_FIELD_BITS = 16


def _field_shift(idx, barred):
    return _FIELD_BITS * (2 * idx - 1 + barred)


def _letter_key(idx, barred):
    """Packed key of z_idx or zb_idx; only plain letters carry weight."""
    return (0 if barred else idx) + (1 << _field_shift(idx, barred))


def _letters(key):
    """(index, barred, exponent) of every letter of a packed key, in
    ascending index order, plain before barred."""
    mask = (1 << _FIELD_BITS) - 1
    key >>= _FIELD_BITS
    f = 1
    while key:
        if key & mask:
            yield (f + 1) // 2, f % 2 == 0, key & mask
        key >>= _FIELD_BITS
        f += 1


def _check_guards(keys):
    """Raise if any key has a guard bit set, i.e. a field overflowed."""
    acc = reduce(or_, keys, 0)
    fields = acc.bit_length() // _FIELD_BITS + 1
    ones = ((1 << _FIELD_BITS * fields) - 1) // ((1 << _FIELD_BITS) - 1)
    if acc & (ones << (_FIELD_BITS - 1)):
        raise ConsistencyViolation(f"a monomial field overflowed {_FIELD_BITS} bits")


class _Poly:
    """Integer polynomial in letters z_i and zb_i, one packed int per
    monomial: field 0 holds the plain-letter weight, field 2i - 1 the
    exponent of z_i and field 2i that of zb_i, each _FIELD_BITS wide with
    a guard top bit.  A monomial product is one int add, and every
    product raises ConsistencyViolation if a guard bit of its output is
    set; the module docstring proves the fields fit.  An optional weight
    cap prunes monomials whose plain-letter weight exceeds it; pruning is
    an ideal, so capped arithmetic stays exact below the cap."""

    __slots__ = ("terms", "cap")

    def __init__(self, terms=None, cap=None):
        terms = terms or {}
        self.terms = terms if 0 not in terms.values() else {k: c for k, c in terms.items() if c}
        self.cap = cap

    @staticmethod
    def variable(index, barred, cap=None):
        return _Poly({_letter_key(index, barred): 1}, cap)

    def _coerce(self, other):
        if isinstance(other, _Poly):
            return other
        if isinstance(other, int):
            return _Poly({0: other} if other else {}, self.cap)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            out[k] = get(k, 0) + c
        return _Poly(out, self.cap if self.cap is not None else other.cap)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cap = self.cap if self.cap is not None else other.cap
        wmask = (1 << _FIELD_BITS) - 1
        limit = wmask if cap is None else cap
        right = other.terms.items()
        out = {}
        get = out.get
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                key = k1 + k2
                if key & wmask <= limit:
                    out[key] = get(key, 0) + c1 * c2
        _check_guards(out)
        return _Poly(out, cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms


def _contains_index(key, idx):
    # the z_idx and zb_idx fields sit side by side
    return (key >> _field_shift(idx, False)) & ((1 << 2 * _FIELD_BITS) - 1) != 0


def _divide_by_letter(poly, idx):
    """Exact division by the plain letter z_idx."""
    letter = _letter_key(idx, False)
    shift, mask = _field_shift(idx, False), (1 << _FIELD_BITS) - 1
    out = {}
    for key, c in poly.terms.items():
        if not key >> shift & mask:
            raise ConsistencyViolation(
                f"monomial not divisible by letter {idx}"
            )
        out[key - letter] = c
    return _Poly(out, poly.cap)


def _divide_one_plus_u(poly, idx):
    """Exact division by 1 + z_idx zb_idx via ascent in the paired order:
    the order-d slice of the quotient is the dividend's minus u times the
    order-(d - 1) slice."""
    # the paired order min(e(z_idx), e(zb_idx)) reads two adjacent fields
    plain, mask = _field_shift(idx, False), (1 << _FIELD_BITS) - 1
    barred = plain + _FIELD_BITS
    by_ord = {}
    for key, c in poly.terms.items():
        order = min(key >> plain & mask, key >> barred & mask)
        by_ord.setdefault(order, {})[key] = c
    minus_u = _Poly({_letter_key(idx, False) + _letter_key(idx, True): -1}, poly.cap)
    part = result = _Poly(by_ord.get(0, {}), poly.cap)
    for d in range(1, max(by_ord, default=0) + 1):
        part = _Poly(by_ord.get(d, {}), poly.cap) + minus_u * part
        result = result + part
    # quotient weight w only reads dividend weights <= w, so under a cap
    # the result is right below the cap even though the tail is junk;
    # exact mode demands a clean multiply-back
    if poly.cap is None and not result == poly + minus_u * result:
        raise ConsistencyViolation(
            f"division by 1 + |z_{idx}|^2 left a remainder"
        )
    return result


# --- index pairs and coefficient tables -------------------------------


@dataclass(frozen=True)
class IndexPair:
    """Grouped multi-index: i = (i_0, .., i_L) and j = (j_1, .., j_L),
    both nondecreasing and positive, with sum(i) - sum(j) = 1."""

    i: tuple
    j: tuple

    def __post_init__(self):
        i, j = tuple(self.i), tuple(self.j)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        if len(i) != len(j) + 1:
            raise InvalidIndex(f"need len(i) = len(j) + 1, got {len(i)}, {len(j)}")
        for v in i + j:
            if not isinstance(v, int) or v < 1:
                raise InvalidIndex(f"indices must be positive integers, got {v!r}")
        if any(a > b for a, b in zip(i, i[1:])) or any(
            a > b for a, b in zip(j, j[1:])
        ):
            raise InvalidIndex("index lists must be nondecreasing")
        if sum(i) - sum(j) != 1:
            raise InvalidIndex(
                f"sum(i) - sum(j) must be 1, got {sum(i) - sum(j)}"
            )

    @property
    def L(self) -> int:
        return len(self.j)

    @property
    def weight(self) -> int:
        return sum(self.i)

    def interlacing_ok(self) -> bool:
        """The full ordering constraints: i_l <= j_l and i_{l-1} < j_l."""
        ok_pairwise = all(self.i[l] <= self.j[l - 1] for l in range(1, self.L + 1))
        ok_strict = all(self.i[l - 1] < self.j[l - 1] for l in range(1, self.L + 1))
        return ok_pairwise and ok_strict


@dataclass
class CoefficientTable:
    """Positive integer coefficients of the grouped residue expansion,
    keyed by full index pairs (the group index is i[0])."""

    entries: dict = field(default_factory=dict)
    support: int = 0
    weight_cap: int | None = None

    def evaluate_group(self, n: int, values, conjugates=None):
        """Evaluate the group-n polynomial at values[index] over any ring
        whose elements multiply with ints; conjugates default to
        values[index].conjugate()."""
        total = 0
        for pair, c in self.entries.items():
            if pair.i[0] != n:
                continue
            term = c
            for idx in pair.i[1:]:
                term = term * values.get(idx, 0)
            for idx in pair.j:
                cv = (
                    conjugates.get(idx, 0)
                    if conjugates is not None
                    else values.get(idx, 0).conjugate()
                )
                term = term * cv
            total = total + term
        return total

    def to_json(self) -> str:
        rows = [
            {"i": list(p.i), "j": list(p.j), "c": int(c)}
            for p, c in sorted(self.entries.items(), key=lambda kv: (kv[0].i, kv[0].j))
        ]
        return json.dumps(
            {
                "schema_version": 1,
                "support": self.support,
                "weight_cap": self.weight_cap,
                "entries": rows,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "CoefficientTable":
        """Inverse of to_json; anything to_json cannot write (a float,
        boolean or non-positive coefficient, a repeated pair, a
        non-integer support or cap, an index above support, a weight
        above the cap, a schema_version other than 1) raises ParseError."""
        try:
            data = json.loads(text)
            if _json_int(data["schema_version"], "schema_version", 1) != 1:
                raise ParseError(f"schema_version {data['schema_version']} is not 1")
            support = _json_int(data["support"], "support", 0)
            cap = data["weight_cap"]
            if cap is not None:
                cap = _json_int(cap, "weight_cap", 0)
            entries = {}
            for row in data["entries"]:
                pair = IndexPair(
                    tuple(_json_int(v, "index", 1) for v in row["i"]),
                    tuple(_json_int(v, "index", 1) for v in row["j"]),
                )
                if max(pair.i + pair.j) > support:
                    raise ParseError(f"entry {pair.i}/{pair.j} indexes past support {support}")
                if cap is not None and pair.weight > cap:
                    raise ParseError(f"entry {pair.i}/{pair.j} weighs above cap {cap}")
                if pair in entries:
                    raise ParseError(f"duplicate entry for {pair.i}/{pair.j}")
                entries[pair] = _json_int(row["c"], "coefficient", 1)
        except (KeyError, TypeError, ValueError, InvalidIndex) as exc:
            raise ParseError(f"bad coefficient table payload: {exc}") from exc
        return CoefficientTable(entries, support, cap)


def _json_int(value, what: str, lowest: int) -> int:
    """A JSON integer of at least `lowest`; floats and booleans refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lowest:
        raise ParseError(f"{what} must be an integer >= {lowest}, got {value!r}")
    return value


def coefficient_tables(support: int, weight_cap: int | None = 12) -> CoefficientTable:
    """Expand the residue exactly and split it into per-group tables.

    Groups are peeled in ascending index order: every monomial holding
    index n belongs to group n because later groups involve only larger
    indices.  Division by the group letter and the paired factors is
    exact; entries above the weight cap are dropped since capped
    arithmetic does not certify them.
    """
    if support < 1:
        raise ValueError("support must be at least 1")
    pairs = [
        (_Poly.variable(i, False, weight_cap), _Poly.variable(i, True, weight_cap))
        for i in range(1, support + 1)
    ]
    remainder = _suffix_table(pairs)[1].terms
    entries = {}
    for n in range(1, support + 1):
        sel = {k: c for k, c in remainder.items() if _contains_index(k, n)}
        remainder = {k: c for k, c in remainder.items() if k not in sel}
        if not sel:
            continue
        group = _Poly(sel, weight_cap)
        s_poly = _divide_by_letter(group, n)
        for k in range(n + 1, support + 1):
            s_poly = _divide_one_plus_u(s_poly, k)
        if weight_cap is not None:
            # divisions consumed weight n, so only this region is certified
            wmask = (1 << _FIELD_BITS) - 1
            s_poly = _Poly(
                {k: c for k, c in s_poly.terms.items() if k & wmask <= weight_cap - n},
                weight_cap,
            )
        if n == 1:
            if not s_poly == 1:
                raise ConsistencyViolation("group 1 must reduce to the constant 1")
            continue
        for key, c in s_poly.terms.items():
            letters = list(_letters(key))
            itail = tuple(idx for idx, barred, e in letters if not barred for _ in range(e))
            jlist = tuple(idx for idx, barred, e in letters if barred for _ in range(e))
            if len(itail) != len(jlist):
                raise ConsistencyViolation("unbalanced monomial in a group table")
            pair = IndexPair((n,) + itail, jlist)
            if weight_cap is not None and pair.weight > weight_cap:
                continue
            if not isinstance(c, int) or c <= 0:
                raise ConsistencyViolation(
                    f"coefficient for {pair.i}/{pair.j} is {c!r}, not a positive integer"
                )
            entries[pair] = c
    if remainder:
        raise ConsistencyViolation("residue monomials left outside all groups")
    return CoefficientTable(entries, support, weight_cap)


def certify_tables(support: int, trials: int | None = None, seed: int = 0) -> CoefficientTable:
    """Build the uncapped tables and certify them by exact identity
    testing: the grouped form must reproduce the direct recursion at
    random rational points with the conjugates sampled independently."""
    table = coefficient_tables(support, weight_cap=None)
    if trials is None:
        trials = support + 2
    rng = np.random.default_rng(seed)

    def draw():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    for trial in range(trials):
        zs = {i: draw() for i in range(1, support + 1)}
        zb = {i: draw() for i in range(1, support + 1)}
        direct = _suffix_table([(zs[i], zb[i]) for i in range(1, support + 1)])[1]
        structured = Fraction(0)
        for n in range(1, support + 1):
            tail = Fraction(1)
            for k in range(n + 1, support + 1):
                tail *= 1 + zs[k] * zb[k]
            s_val = 1 if n == 1 else table.evaluate_group(n, zs, zb)
            structured += zs[n] * tail * s_val
        if direct != structured:
            raise ConsistencyViolation(
                f"identity testing failed at sample {trial}: {direct} != {structured}"
            )
    return table


# --- signed cluster decompositions ------------------------------------


def _alternates(ivals, jvals, ends_with_i):
    """Strict interlacing i1 < j1 < i2 < .. ; balanced clusters end with
    a j, the distinguished cluster ends with an extra i."""
    merged = []
    for a, b in zip(ivals, jvals):
        merged.extend((a, b))
    if ends_with_i:
        if len(ivals) != len(jvals) + 1:
            return False
        merged.append(ivals[-1])
    elif len(ivals) != len(jvals):
        return False
    return all(x < y for x, y in zip(merged, merged[1:]))


def _cluster_splits(rest_i, rest_j, steps):
    """Partitions of the leftover index values into balanced strictly
    interlacing clusters; anchored on the smallest i to cut repeats.
    Each candidate cluster ticks the counter steps."""
    if not rest_i and not rest_j:
        yield ()
        return
    if not rest_i or len(rest_i) != len(rest_j):
        return
    anchor, tail_i = rest_i[0], rest_i[1:]
    for size in range(1, len(rest_j) + 1):
        for extra in combinations(range(len(tail_i)), size - 1):
            ci = (anchor,) + tuple(tail_i[t] for t in extra)
            rem_i = tuple(v for t, v in enumerate(tail_i) if t not in extra)
            for jpick in combinations(range(len(rest_j)), size):
                cj = tuple(rest_j[t] for t in jpick)
                _tick(steps)
                if not _alternates(ci, cj, False):
                    continue
                rem_j = tuple(v for t, v in enumerate(rest_j) if t not in jpick)
                for rest in _cluster_splits(rem_i, rem_j, steps):
                    yield ((ci, cj),) + rest


# Work cap of the two exponential pair routines: enumerate_decompositions
# examines at most this many candidate clusters, subindex_reductions
# returns at most this many pairs; above it they raise CapExceeded.  A
# candidate costs about 5 us on a 2-CPU Xeon, so the cap bounds a search
# at about 5 s.  The tests need at most 335,478 candidates (the all-ones
# pair of weight 10); a distinct-valued pair of length 7 needs 1.35
# million.
MAX_PAIR_STEPS = 1_000_000


def _over_cap(what: str) -> CapExceeded:
    return CapExceeded(f"{what} above the cap MAX_PAIR_STEPS = {MAX_PAIR_STEPS}")


def _tick(steps) -> None:
    if next(steps) >= MAX_PAIR_STEPS:
        raise _over_cap("candidate clusters")


def enumerate_decompositions(pair: IndexPair):
    """Distinct decompositions of the index multiset into one
    i-terminated cluster plus balanced clusters, as canonical tuples
    ((mi, mj), sorted balanced clusters).

    Raises CapExceeded past MAX_PAIR_STEPS candidate clusters; at once
    when the C(2L+1, L) candidates for the distinguished cluster alone
    exceed it."""
    L = pair.L
    candidates = comb(2 * L + 1, L)
    if candidates > MAX_PAIR_STEPS:
        raise _over_cap(f"{candidates} candidate clusters")
    steps = count()
    found = set()
    for r in range(0, L + 1):
        for mi_pos in combinations(range(L + 1), r + 1):
            mi = tuple(pair.i[p] for p in mi_pos)
            for mj_pos in combinations(range(L), r):
                mj = tuple(pair.j[p] for p in mj_pos)
                _tick(steps)
                if not _alternates(mi, mj, True):
                    continue
                rest_i = tuple(pair.i[p] for p in range(L + 1) if p not in mi_pos)
                rest_j = tuple(pair.j[p] for p in range(L) if p not in mj_pos)
                for clusters in _cluster_splits(rest_i, rest_j, steps):
                    found.add(((mi, mj), tuple(sorted(clusters))))
    return sorted(found)


def cluster_coefficient(pair: IndexPair) -> int:
    """Signed count of cluster decompositions with the balanced clusters
    taken as an ordered sequence, so a decomposition contributes once per
    distinct ordering.  The sign depends on the number of balanced
    clusters and the pair length.  Capped like enumerate_decompositions."""
    L = pair.L
    total = 0
    for _, clusters in enumerate_decompositions(pair):
        s = len(clusters)
        orderings = factorial(s)
        for mult in Counter(clusters).values():
            orderings //= factorial(mult)
        total += (-1) ** (s + L) * orderings
    return total


def subindex_reductions(pair: IndexPair):
    """All pairs reachable by cancelling equal values between the i tail
    and j, the original included.

    Raises CapExceeded when there are more than MAX_PAIR_STEPS of them."""
    tail, j = pair.i[1:], pair.j
    common = sorted(set(tail) & set(j))
    options = [range(min(tail.count(v), j.count(v)) + 1) for v in common]
    total = prod(map(len, options))
    if total > MAX_PAIR_STEPS:
        raise _over_cap(f"{total} reductions")
    out = set()
    for counts in product(*options):
        ti, tj = list(tail), list(j)
        for v, t in zip(common, counts):
            for _ in range(t):
                ti.remove(v)
                tj.remove(v)
        out.add(IndexPair((pair.i[0],) + tuple(ti), tuple(tj)))
    return sorted(out, key=lambda p: (p.i, p.j))


# --- identities in Hermitian sums -------------------------------------


def s_identity_check(params: RootParams, which: str) -> float:
    """Deviation between a group polynomial extracted from the exact
    expansion and its claimed expression in Hermitian pairing sums."""
    if params.side != "zeta":
        raise ValueError("s_identity_check expects lower-family parameters")
    sup = params.support
    if sup == 0:
        return 0.0
    cap = 2 * sup + 6
    table = coefficient_tables(sup, weight_cap=cap)
    values = {i: complex(params.value_at(i)) for i in range(1, sup + 1)}

    def of_length(length):
        return CoefficientTable(
            {p: c for p, c in table.entries.items() if p.L == length}, sup, cap
        )

    def u(i):
        return values.get(i, 0j) * values.get(i + 1, 0j).conjugate()

    if which == "s2":
        claim = b_sum(params, 2, 1) + b_sum(params, 3, 1)
        return abs(table.evaluate_group(2, values) - claim)
    if which == "s_n1":
        worst = 0.0
        length_one = of_length(1)
        for n in range(2, sup + 1):
            claim = b_sum(params, n, n - 1) + b_sum(params, n + 1, n - 1)
            worst = max(worst, abs(length_one.evaluate_group(n, values) - claim))
        return worst
    if which == "s32":
        claim = b_sum(params, 3, 1) ** 2 + b_sum(params, 4, 1) ** 2
        claim += sum(u(i) ** 2 for i in range(4, sup + 1))
        claim += u(3) * u(4)
        claim += 2 * sum(u(i) * u(i + 1) for i in range(4, sup + 1))
        return abs(of_length(2).evaluate_group(3, values) - claim)
    raise ValueError(f"unknown identity tag {which!r}")


def zeta1_four_vars(xs, ps) -> complex:
    """First parameter from the first four residue coefficients and the
    tail products ps[n-1] = prod_{j>n} (1 + |v_j|^2)."""
    if len(xs) != 4 or len(ps) != 4:
        raise ValueError("need exactly four residues and four tail products")
    p1, p2, p3, p4 = (float(p) for p in ps)
    if min(p1, p2, p3, p4) <= 0:
        raise ValueError("tail products must be positive")
    x1, x2, x3, x4 = (complex(x) for x in xs)
    xb3, xb4 = x3.conjugate(), x4.conjugate()
    return (
        x1 / p1
        - x2**2 * xb3 / (p1 * p2 * p3)
        + 2 * x2 * x3**2 * xb3 * xb4 / (p1 * p2 * p3**2 * p4)
        - 2 * x2 * x3 * xb4 / (p1 * p3 * p4)
        - x3**4 * xb3 * xb4**2 / (p1 * p2 * p3**3 * p4**2)
        + x3**3 * xb4**2 / (p1 * p3**2 * p4**2)
    )
