"""Residue recursion, exact coefficient tables, cluster sums, identities."""

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from loopfact.errors import (
    CapExceeded,
    ConsistencyViolation,
    InvalidIndex,
    LoopFactError,
    ParseError,
)
from loopfact.laurent import truncate
from loopfact.rootsub import RootParams, partial_product
from loopfact.factor import k2_triangular_from_cd
from loopfact import combinat
from loopfact.combinat import (
    CoefficientTable,
    IndexPair,
    _Poly,
    _suffix_table,
    b_sum,
    certify_tables,
    cluster_coefficient,
    coefficient_tables,
    enumerate_decompositions,
    full_x,
    s_identity_check,
    subindex_reductions,
    x1_recursion,
    zeta1_four_vars,
)

from oracles import TuplePoly


def shape_pairs(max_weight):
    for L in range(1, max_weight):
        for i in itertools.combinations_with_replacement(range(1, max_weight + 1), L + 1):
            if sum(i) > max_weight:
                continue
            for j in itertools.combinations_with_replacement(range(1, max_weight + 1), L):
                if sum(j) == sum(i) - 1:
                    yield IndexPair(i, j)


# --- recursion --------------------------------------------------------


def compositions(total, parts, max_part):
    """Ordered tuples of `parts` integers in 1..max_part summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = max(1, total - (parts - 1) * max_part)
    hi = min(max_part, total - (parts - 1))
    for first in range(lo, hi + 1):
        for rest in compositions(total - first, parts - 1, max_part):
            yield (first,) + rest


def reference_suffix_table(pairs):
    """The suffix recursion written as a sum over integer compositions:
    nxt[i] = (1 + w wb) sum_s wb^s sum over compositions of s(n+1)+1
    into s+1 parts of the product of cur[i+part-1], with n = m - i.
    Exponential in the support; an oracle for _suffix_table."""
    cur = {}
    for m in range(1, len(pairs) + 1):
        w, wbar = pairs[m - 1]
        nxt = {m: w}
        for i in range(m - 1, 0, -1):
            nloc = m - i
            acc = 0
            power = 1
            for s in range(0, nloc):
                csum = 0
                for comp in compositions(s * (nloc + 1) + 1, s + 1, nloc):
                    prod = 1
                    for part in comp:
                        prod = prod * cur[i + part - 1]
                    csum = csum + prod
                acc = acc + csum * power
                power = power * wbar
            nxt[i] = (1 + w * wbar) * acc
        cur = nxt
    return cur


def random_fraction_pairs(rng, support):
    def draw():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    return [(draw(), draw()) for _ in range(support)]


def letter_pairs(support, cap):
    return [
        (_Poly.variable(i, False, cap), _Poly.variable(i, True, cap))
        for i in range(1, support + 1)
    ]


def test_suffix_table_matches_composition_reference_over_fractions():
    rng = np.random.default_rng(3)
    for support in range(1, 10):
        pairs = random_fraction_pairs(rng, support)
        assert _suffix_table(pairs) == reference_suffix_table(pairs), support


def test_suffix_table_matches_composition_reference_over_polynomials():
    for support in range(1, 9):
        for cap in (None, 2 * support):
            pairs = letter_pairs(support, cap)
            got = _suffix_table(pairs)
            want = reference_suffix_table(pairs)
            assert got.keys() == want.keys()
            for start in want:
                assert got[start].terms == want[start].terms, (support, cap, start)


def decode(key):
    """A packed monomial as the oracle's pair of sorted (index, exponent)
    tuples; its weight field must equal the plain-letter weight."""
    plain, barred = [], []
    for idx, is_barred, e in combinat._letters(key):
        (barred if is_barred else plain).append((idx, e))
    assert key & ((1 << combinat._FIELD_BITS) - 1) == sum(i * e for i, e in plain)
    return tuple(plain), tuple(barred)


def test_packed_suffix_table_matches_tuple_oracle():
    for support in range(1, 9):
        for cap in (None, 2 * support):
            got = _suffix_table(letter_pairs(support, cap))
            want = _suffix_table(
                [
                    (TuplePoly.variable(i, False, cap), TuplePoly.variable(i, True, cap))
                    for i in range(1, support + 1)
                ]
            )
            assert got.keys() == want.keys()
            for start in want:
                decoded = {decode(k): c for k, c in got[start].terms.items()}
                assert len(decoded) == len(got[start].terms)
                assert decoded == want[start].terms, (support, cap, start)


def test_packed_field_overflow_raises():
    x = _Poly.variable(1, True)
    for _ in range(combinat._FIELD_BITS - 2):
        x = x * x
    # zb_1^(2^14) is the largest power of two below the guard bit
    assert [decode(k) for k in x.terms] == [((), ((1, 2 ** (combinat._FIELD_BITS - 2)),))]
    with pytest.raises(ConsistencyViolation):
        x * x
    # z_2^(2^13) has weight 2^14: one more squaring overflows the weight
    # field while the z_2 exponent field still fits
    y = _Poly.variable(2, False)
    for _ in range(combinat._FIELD_BITS - 3):
        y = y * y
    assert [decode(k) for k in y.terms] == [(((2, 2 ** (combinat._FIELD_BITS - 3)),), ())]
    with pytest.raises(ConsistencyViolation):
        y * y


def test_narrow_fields_raise_instead_of_wrong_tables(monkeypatch):
    # support 4 reaches plain weight 13; a 4-bit field holds at most 7
    assert coefficient_tables(4, weight_cap=None).entries
    monkeypatch.setattr(combinat, "_FIELD_BITS", 4)
    with pytest.raises(ConsistencyViolation):
        coefficient_tables(4, weight_cap=None)


def test_suffix_table_matches_composition_reference_over_complex():
    rng = np.random.default_rng(5)
    for support in range(1, 15):
        vals = rng.uniform(-0.5, 0.5, support) + 1j * rng.uniform(-0.5, 0.5, support)
        pairs = [(complex(v), complex(v).conjugate()) for v in vals]
        got = _suffix_table(pairs)
        want = reference_suffix_table(pairs)
        scale = max(abs(v) for v in want.values())
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * scale, support


class BudgetedFraction:
    """Fraction whose products draw on a shared budget and raise once it
    is spent, so a super-cubic recursion fails fast instead of hanging."""

    def __init__(self, value, budget):
        self.value = Fraction(value)
        self.budget = budget

    def __add__(self, other):
        return BudgetedFraction(self.value + getattr(other, "value", other), self.budget)

    __radd__ = __add__

    def __mul__(self, other):
        self.budget["left"] -= 1
        if self.budget["left"] < 0:
            raise OverflowError("ring product budget exhausted")
        return BudgetedFraction(self.value * getattr(other, "value", other), self.budget)

    __rmul__ = __mul__


def test_suffix_table_takes_at_most_cubic_products():
    support = 24
    pairs = random_fraction_pairs(np.random.default_rng(11), support)
    budget = {"left": support**3}
    counted = _suffix_table(
        [(BudgetedFraction(w, budget), BudgetedFraction(wb, budget)) for w, wb in pairs]
    )
    assert {k: v.value for k, v in counted.items()} == _suffix_table(pairs)


def test_recursion_closed_forms():
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.15j
    assert x1_recursion(RootParams("zeta", (z1,)), 1) == z1
    got = x1_recursion(RootParams("zeta", (z1, z2)), 2)
    assert abs(got - z1 * (1 + abs(z2) ** 2)) < 1e-15
    # trailing zeros change nothing
    assert abs(x1_recursion(RootParams("zeta", (z1, z2)), 5) - got) < 1e-15
    with pytest.raises(ValueError):
        x1_recursion(RootParams("zeta", (z1, z2)), 1)
    with pytest.raises(ValueError):
        x1_recursion(RootParams("eta", (z1,)), 1)


def test_full_x_matches_triangular_data_route():
    rng = np.random.default_rng(7)
    for support in range(1, 6):
        vals = tuple(
            0.4 * 0.6**k * np.exp(2j * np.pi * rng.uniform()) for k in range(support)
        )
        k2 = partial_product(RootParams("zeta", vals))
        t = k2_triangular_from_cd(k2.c, k2.d, 2 * support + 4)
        fx = full_x(RootParams("zeta", vals))
        assert truncate(fx - t.x, -30, 30).coefficient_max() < 1e-10


def test_full_x_nonnegative_and_monotone_for_nonnegative_params():
    base = (0.5, 0.4, 0.3, 0.25, 0.2)
    prev = None
    for support in range(1, 6):
        fx = full_x(RootParams("zeta", base[:support]))
        coeffs = [fx.coeff(k) for k in range(1, 7)]
        for c in coeffs:
            assert abs(c.imag) < 1e-15 and c.real > -1e-15
        if prev is not None:
            for c, p in zip(coeffs, prev):
                assert c.real >= p.real - 1e-12
        prev = coeffs


# --- coefficient tables -----------------------------------------------


# sha256 of coefficient_tables(s, cap).to_json() before the packed keys
TABLE_DIGESTS = {
    (1, None): "818756cb67759f2652cb7d8b11db1634f7b14fb3e945ed0cf4d98e28602ccc9a",
    (1, 2): "371661a04942db01f01e9a3334cb1f31b43db4eae3723e8fd4c4076d87fbb774",
    (2, None): "4fc522a8ff571303a5c99dc6c63693f0233fc71427b18e962ce7dc0ce1367e79",
    (2, 4): "98083a8e8eea5f97c66be7e21c387e49c197f1bd3e91f6bacfda9518f5eb899e",
    (3, None): "d033d0ce33d59633ad5b604c7d1536052d297f7ba21f720ae58f7d88a1d18220",
    (3, 6): "3f4b4fad24a36223681b30f7c1631d36649638bcb07e7d1fd85fc40bfd5597de",
    (4, None): "a7382f4ed89ffb679986d55691bbb1d98e6b94643f415ee67a614503f3e4faab",
    (4, 8): "30000c498599add5227f0fde6e8590bc97c180529940cfed42d640172c665306",
    (5, None): "8626c9e99b8ca8bd545e58b4b58c9cfda0dd313a6490a848708b82576c7e9b40",
    (5, 10): "a1b3b0e765007c4e690997134399ac9fb6defb720c790678e1775d75e016489d",
    (6, None): "b90b8c39db1138fec8df7c515a9b29538ac9b54a713a12ac589ef2e87042ca67",
    (6, 12): "b20dc3926bf58b31054830ad2851856b2d73f738a503e42450e87ae991fc62bb",
    (7, None): "e0c3f2f8441361cf58ac8c3ac478ba99822356489e0e28b06f682a73c0758fac",
    (7, 14): "f35e39c1979255c7fa7ddadbcde93843f37a65f05104c672a6dc83e56607e53c",
    (8, None): "a1dfb7d80efeb11cf145383d8de4e7f7aae9d19308279afc4432058e6221adc2",
    (8, 16): "6bd646faa19da5c98840f23e5bba66779a55278e0ba4ff1663c2ccebd5bef1a8",
}


def test_table_bytes_pinned():
    for (support, cap), digest in TABLE_DIGESTS.items():
        text = coefficient_tables(support, weight_cap=cap).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (support, cap)


def test_support_four_table_frozen():
    t = coefficient_tables(4, weight_cap=None)
    expected = {
        IndexPair((2, 2), (3,)): 1,
        IndexPair((2, 3), (4,)): 2,
        IndexPair((3, 3, 3), (4, 4)): 1,
    }
    assert t.entries == expected


def test_evaluate_group_is_exact_over_fractions():
    t = coefficient_tables(4, weight_cap=None)
    zs = {2: Fraction(1, 2), 3: Fraction(1, 3), 4: Fraction(1, 5)}
    zb = {3: Fraction(2, 7), 4: Fraction(-1, 3)}
    # group 2 is z2 zb3 + 2 z3 zb4
    got = t.evaluate_group(2, zs, zb)
    assert isinstance(got, Fraction)
    assert got == Fraction(1, 2) * Fraction(2, 7) + 2 * Fraction(1, 3) * Fraction(-1, 3)
    vals = {2: 0.5 + 0.1j, 3: -0.2j, 4: 0.3}
    want = vals[2] * vals[3].conjugate() + 2 * vals[3] * vals[4].conjugate()
    assert abs(t.evaluate_group(2, vals) - want) < 1e-15
    assert t.evaluate_group(7, vals) == 0


def test_certified_tables_and_positivity():
    # rational identity testing with independent conjugate letters
    for support in (4, 5):
        table = certify_tables(support)
        for pair, c in table.entries.items():
            assert isinstance(c, int) and c > 0
            assert pair.interlacing_ok()


def test_capped_table_agrees_below_cap():
    capped = coefficient_tables(5, weight_cap=10)
    full = coefficient_tables(5, weight_cap=None)
    assert capped.entries == {p: c for p, c in full.entries.items() if p.weight <= 10}


def test_capped_divisions_compute_no_dropped_term(monkeypatch):
    # the last division of group n (by 1 + z_S zb_S) returns exactly the
    # terms that become group n's entries: none above weight cap - n
    support = 6
    group, last = [], {}
    by_letter, by_pair = combinat._divide_by_letter, combinat._divide_one_plus_u

    def letter(poly, idx):
        group.append(idx)
        return by_letter(poly, idx)

    def pair(poly, idx):
        out = by_pair(poly, idx)
        if idx == support:
            last[group[-1]] = out
        return out

    monkeypatch.setattr(combinat, "_divide_by_letter", letter)
    monkeypatch.setattr(combinat, "_divide_one_plus_u", pair)
    table = coefficient_tables(support, weight_cap=2 * support)
    assert last.pop(1) == 1  # group 1 reduces to the constant 1
    assert last
    for n, poly in last.items():
        entries = [c for p, c in table.entries.items() if p.i[0] == n]
        assert sorted(poly.terms.values()) == sorted(entries), n


def test_wide_capped_table_certified_properties():
    tab = coefficient_tables(9, weight_cap=10)
    assert len(tab.entries) == 18
    for pair, c in tab.entries.items():
        assert isinstance(c, int) and c > 0
        assert pair.interlacing_ok()
        assert pair.weight <= 10


def test_table_json_round_trip():
    tab = coefficient_tables(5, weight_cap=10)
    back = CoefficientTable.from_json(tab.to_json())
    assert back.entries == tab.entries
    assert back.support == 5 and back.weight_cap == 10
    assert back.to_json() == tab.to_json()
    uncapped = coefficient_tables(6, weight_cap=None)
    assert CoefficientTable.from_json(uncapped.to_json()).to_json() == uncapped.to_json()
    with pytest.raises(ParseError):
        CoefficientTable.from_json('{"entries": [{"i": [1], "j": "x"}]}')


@pytest.mark.parametrize(
    "edit",
    [
        {"c": 2.7},
        {"c": -4},
        {"c": 0},
        {"c": True},
        {"i": [True, 2], "j": [2]},
        {"i": [2.0, 2], "j": [3]},
        {"duplicate": True},
        {"weight_cap": "x"},
        {"weight_cap": 1e400},
        {"weight_cap": 10.0},
        {"support": "5"},
        {"i": [3, 3, 3, 3], "j": [3, 4, 4]},  # weight 12 above the cap 10
        {"i": [1, 5], "j": [5]},  # index 5 above support 4
        {"schema_version": 7},
        {"schema_version": True},
        {"drop": "schema_version"},
    ],
)
def test_table_json_rejects_malformed(edit):
    doc = json.loads(coefficient_tables(4, weight_cap=10).to_json())
    row = doc["entries"][0]
    for key in ("c", "i", "j"):
        if key in edit:
            row[key] = edit[key]
    if "duplicate" in edit:
        doc["entries"].append(dict(doc["entries"][0], c=5))
    for key in ("weight_cap", "support", "schema_version"):
        if key in edit:
            doc[key] = edit[key]
    doc.pop(edit.get("drop"), None)
    with pytest.raises(ParseError):
        CoefficientTable.from_json(json.dumps(doc))


# --- cluster sums -----------------------------------------------------


def test_index_pair_shape_validation():
    with pytest.raises(InvalidIndex):
        IndexPair((2, 1), (2,))  # not sorted
    with pytest.raises(InvalidIndex):
        IndexPair((0, 2), (1,))  # not positive
    with pytest.raises(InvalidIndex):
        IndexPair((1, 2), (3,))  # sums off by more than one
    with pytest.raises(InvalidIndex):
        IndexPair((1, 2), (1, 1))  # length mismatch


def test_smallest_and_worked_cluster_examples():
    assert cluster_coefficient(IndexPair((1,), ())) == 1
    worked = IndexPair((1, 1, 3), (2, 2))
    decomps = enumerate_decompositions(worked)
    assert len(decomps) == 2
    assert cluster_coefficient(worked) == 0


def test_exponential_pair_routines_are_capped(monkeypatch):
    # the all-ones pair of weight 10 is the largest search the tests run
    assert combinat.MAX_PAIR_STEPS > 335_478
    # length 11: the distinguished cluster alone has C(23, 11) candidates
    with pytest.raises(CapExceeded):
        enumerate_decompositions(IndexPair((1,) * 12, (1,) * 11))
    worked = IndexPair((1, 1, 3), (2, 2))
    monkeypatch.setattr(combinat, "MAX_PAIR_STEPS", 20)
    for routine in (enumerate_decompositions, cluster_coefficient):
        with pytest.raises(CapExceeded) as info:
            routine(worked)
        assert isinstance(info.value, LoopFactError)
    # 2^4 reductions fit under the lowered cap, 2^6 do not
    assert len(subindex_reductions(IndexPair((1, 2, 3, 4, 5), (2, 3, 4, 5)))) == 16
    with pytest.raises(CapExceeded):
        subindex_reductions(IndexPair((1, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)))


def test_cancellation_for_all_violating_pairs():
    violating = 0
    for pair in shape_pairs(10):
        if pair.interlacing_ok():
            continue
        violating += 1
        assert cluster_coefficient(pair) == 0, pair
    assert violating > 300


def test_cluster_sums_match_certified_tables():
    table = certify_tables(5)
    for pair, c in table.entries.items():
        cc = cluster_coefficient(pair)
        assert c <= cc
        if not (set(pair.i[1:]) & set(pair.j)):
            assert cc == c
        # cancelling matched values reduces the signed sum to table lookups;
        # checked in full here, though the contract treats it as exploratory
        reduced = sum(
            table.entries.get(r, 0)
            for r in subindex_reductions(pair)
            if r.interlacing_ok()
        )
        assert cc == reduced


# --- identities in pairing sums ---------------------------------------


def test_b_sum_frozen():
    p = RootParams("zeta", (0.5, 0.25, 0.125))
    assert abs(b_sum(p, 1, 1) - (0.5 * 0.25 + 0.25 * 0.125)) < 1e-15
    assert abs(b_sum(p, 2, 1) - 0.25 * 0.125) < 1e-15
    assert b_sum(p, 3, 2) == 0


def test_s_identities_on_random_support_six():
    rng = np.random.default_rng(42)
    vals = tuple(0.4 * 0.6**k * np.exp(2j * np.pi * rng.uniform()) for k in range(6))
    p = RootParams("zeta", vals)
    for which in ("s2", "s_n1", "s32"):
        assert s_identity_check(p, which) < 1e-10
    assert s_identity_check(RootParams("zeta", ()), "s2") == 0.0
    with pytest.raises(ValueError):
        s_identity_check(p, "s99")


def test_s2_on_sparse_support():
    p = RootParams("zeta", (0.0, 0.3 + 0.2j, -0.25 + 0.1j))
    assert s_identity_check(p, "s2") == 0.0


# --- four-variable inversion ------------------------------------------


def tail_products(zeta):
    return [
        float(np.prod([1.0 + abs(z) ** 2 for z in zeta[n:]])) for n in range(1, 5)
    ]


def residues(zeta, first, last):
    fx = full_x(RootParams("zeta", zeta))
    return [fx.coeff(j).conjugate() for j in range(first, last + 1)]


def test_four_vars_trivial_and_round_trips():
    assert zeta1_four_vars([0.7 + 0.2j, 0, 0, 0], [1, 1, 1, 1]) == 0.7 + 0.2j
    zeta = (0.3, 0.2, 0.1, 0.05)
    assert abs(zeta1_four_vars(residues(zeta, 1, 4), tail_products(zeta)) - 0.3) < 1e-9
    zeta_c = (0.3 + 0.1j, -0.2 + 0.05j, 0.1 - 0.08j, 0.04 + 0.03j)
    got = zeta1_four_vars(residues(zeta_c, 1, 4), tail_products(zeta_c))
    assert abs(got - zeta_c[0]) < 1e-12
    with pytest.raises(ValueError):
        zeta1_four_vars([1, 0, 0, 0], [1, 0.0, 1, 1])


def test_four_vars_shift_law():
    zeta = tuple(0.15 * 0.25**k for k in range(6))
    fx = full_x(RootParams("zeta", zeta))
    xs = [fx.coeff(j).conjugate() for j in range(2, 6)]
    ps = [
        float(np.prod([1.0 + abs(z) ** 2 for z in zeta[n:]])) for n in range(2, 6)
    ]
    assert abs(zeta1_four_vars(xs, ps) - zeta[1]) < 1e-8
