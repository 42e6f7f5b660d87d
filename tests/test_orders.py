"""Term-order primitives: comparators, the chain enumeration, initial terms."""

import pytest

from veronese_gb.errors import DimensionError, DomainError
from veronese_gb.orders import (GammaRevLex, GrevLex, Lex, Weighted, cmp_gamma_vars,
                                cmp_lex, cmp_rlex, gamma_profile, multi_indices)
from veronese_gb.polyring import base_ring, parse_polynomial, veronese_ring

CHAIN_2_4 = ((2, 2), (3, 1), (1, 3), (4, 0), (0, 4))
CHAIN_3_3 = ((1, 1, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2),
             (0, 2, 1), (0, 1, 2), (3, 0, 0), (0, 3, 0), (0, 0, 3))


def test_chain_s2_d4_matches_worked_example():
    assert multi_indices(2, 4) == CHAIN_2_4


def test_chain_s3_d3_matches_worked_example():
    assert multi_indices(3, 3) == CHAIN_3_3


def test_multi_indices_degenerate_and_counts():
    assert multi_indices(1, 9) == ((9,),)
    assert len(multi_indices(3, 2)) == 6
    assert len(multi_indices(2, 4)) == 5
    with pytest.raises(DomainError):
        multi_indices(0, 2)
    with pytest.raises(DomainError):
        multi_indices(2, 0)


def test_cmp_lex():
    assert cmp_lex((0, 2), (2, 0)) == -1
    assert cmp_lex((1, 1), (1, 1)) == 0
    assert cmp_lex((1, 0, 2), (1, 1, 0)) == -1
    with pytest.raises(DimensionError):
        cmp_lex((1, 0), (1, 0, 0))


def test_cmp_rlex():
    assert cmp_rlex((2, 0), (0, 1)) == 1           # degree dominates
    assert cmp_rlex((2, 0, 0), (0, 2, 0)) == 1     # more of a later variable loses
    assert cmp_rlex((1, 2, 3), (1, 2, 3)) == 0
    with pytest.raises(DimensionError):
        cmp_rlex((1,), (1, 2))


def test_gamma_profile():
    assert gamma_profile((3, 1, 2)) == (1, 2, 3)
    assert gamma_profile((0, 4)) == (0, 4)
    assert gamma_profile((2, 0, 1)) == (0, 1, 2)


def test_cmp_gamma_vars_chains():
    for chain in (CHAIN_2_4, CHAIN_3_3):
        for i in range(len(chain)):
            for j in range(len(chain)):
                expected = (i > j) - (i < j)
                assert cmp_gamma_vars(chain[i], chain[j]) == expected


def test_cmp_gamma_vars_profile_tie():
    # equal profiles (1,2): the lex-larger index is the smaller variable
    assert cmp_gamma_vars((2, 1), (1, 2)) == -1
    with pytest.raises(DimensionError):
        cmp_gamma_vars((2, 1), (1, 1))  # different degrees


def test_weighted_order():
    tie = GrevLex(2)
    w = Weighted((1, 1), tie)
    assert w.cmp((2, 0), (1, 2)) == -1
    # equal weights fall through to the tiebreak
    assert w.cmp((2, 0), (0, 2)) == tie.cmp((2, 0), (0, 2))
    with pytest.raises(DimensionError):
        Weighted((1, -1), tie)


def test_weighted_all_ones_equals_grevlex(rng):
    n = 4
    w = Weighted((1,) * n, GrevLex(n))
    g = GrevLex(n)
    for _ in range(300):
        a = tuple(rng.randrange(5) for _ in range(n))
        b = tuple(rng.randrange(5) for _ in range(n))
        assert w.cmp(a, b) == g.cmp(a, b)


def test_initial_term_examples():
    R = veronese_ring(2, 2)
    order = GammaRevLex(2, 2)
    f = parse_polynomial("x[2,0]*x[0,2] - x[1,1]^2", R)
    lt, c = f.leading_term(order)
    assert R.indices.index((2, 0)) >= 0
    assert lt == tuple(1 if a in ((2, 0), (0, 2)) else 0 for a in R.indices)
    assert c == 1

    single = parse_polynomial("3/2*x[1,1]", R)
    assert single.leading_term(order) == (
        tuple(1 if a == (1, 1) else 0 for a in R.indices), 1.5)

    S = base_ring(3)
    g = parse_polynomial("y1^2 - y2*y3", S)
    assert g.leading_term(Lex(3)) == ((2, 0, 0), 1)


def test_initial_term_zero_errors():
    S = base_ring(2)
    with pytest.raises(DomainError):
        S.zero.leading_term(GrevLex(2))


def test_initial_form_examples():
    S = base_ring(3)
    f = parse_polynomial("y1^2 - y2*y3", S)
    assert f.initial_form((2, 1, 1)) == parse_polynomial("y1^2", S)
    assert f.initial_form((1, 1, 1)) == f          # homogeneous: everything stays
    g = parse_polynomial("y1 + y2", S)
    assert g.initial_form((1, 1, 0)) == parse_polynomial("y1 + y2", S)
    with pytest.raises(DimensionError):
        f.initial_form((1, 1))


def test_key_memo_contract():
    # perfbench/tracing.py counts key calls by patching each class's own
    # ``key`` and reads ``order._cache`` to tell hits from misses
    from veronese_gb.orders import Block

    def make():
        return [(Lex(3, (2, 0, 1)), 3), (GrevLex(3), 3), (GammaRevLex(2, 2), 3),
                (Weighted((1, 2, 3), GrevLex(3)), 3),
                (Block(1, GrevLex(1), GrevLex(2)), 3)]

    assert {type(o) for o, _ in make()} == {Lex, GrevLex, GammaRevLex,
                                            Weighted, Block}
    fresh, filled = make(), make()
    for order, n in filled:
        assert "key" in type(order).__dict__
        exps = tuple(range(1, n + 1))
        k = order.key(exps)
        assert order._cache[exps] == k
        assert order.key(exps) is k
    for (a, _), (b, _) in zip(fresh, filled):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_block_order_elimination_property(rng):
    from veronese_gb.orders import Block
    block = Block(2, GrevLex(2), GrevLex(3))
    for _ in range(200):
        a = (0, 0) + tuple(rng.randrange(4) for _ in range(3))
        b = (rng.randrange(1, 3), rng.randrange(3)) + \
            tuple(rng.randrange(4) for _ in range(3))
        assert block.cmp(a, b) == -1  # front content always dominates


def _reference_cmp(order, a, b):
    """-1, 0 or 1 as a precedes, equals or follows b, from the order's
    definition part by part; never reads a key."""
    from veronese_gb.orders import Block
    if isinstance(order, Block):
        f = order.front
        return (_reference_cmp(order.front_order, a[:f], b[:f])
                or _reference_cmp(order.back_order, a[f:], b[f:]))
    if isinstance(order, Weighted):
        wa = sum(w * x for w, x in zip(order.weights, a))
        wb = sum(w * x for w, x in zip(order.weights, b))
        return (wa > wb) - (wa < wb) or _reference_cmp(order.tie, a, b)
    if isinstance(order, Lex):
        for i in order.priority:
            if a[i] != b[i]:
                return 1 if a[i] > b[i] else -1
        return 0
    if isinstance(order, GrevLex):
        chain = order.chain
    else:                       # GammaRevLex: position 0 is the smallest
        chain = tuple(reversed(range(order.nvars)))
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    # the last disagreeing position along the chain: less of it is larger
    for i in reversed(chain):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


def _key_orders():
    from veronese_gb.orders import Block
    grev4 = GrevLex(4, (2, 0, 3, 1))
    return [
        pytest.param(GrevLex(5, (3, 1, 4, 0, 2)), 5, id="grevlex"),
        pytest.param(GammaRevLex(2, 3), 4, id="gamma"),
        pytest.param(Block(2, GrevLex(2), GammaRevLex(2, 3)), 6,
                     id="block-gamma-back"),
        pytest.param(Block(3, GrevLex(3), Weighted((1, 2, 0, 1), grev4)), 7,
                     id="block-weighted-back"),
        pytest.param(Block(1, GrevLex(1),
                           Block(2, Lex(2, (1, 0)), GrevLex(3))), 6,
                     id="block-nested"),
        pytest.param(Weighted((2, 1, 1, 0), grev4), 4,
                     id="weighted-grevlex-tie"),
        pytest.param(Weighted((1, 0, 2, 1, 1),
                              Block(2, GrevLex(2), GrevLex(3))), 5,
                     id="weighted-block-tie"),
    ]


@pytest.mark.parametrize("order,n", _key_orders())
def test_keys_compare_as_defined(order, n, rng):
    # a composite key concatenates its parts' keys; the comparison it gives
    # must still be the part-by-part one, ties included
    for _ in range(400):
        a = tuple(rng.randrange(3) for _ in range(n))
        b = list(a)
        if rng.randrange(2):
            rng.shuffle(b)      # same degree: the tie-breaks decide
        else:
            b = [rng.randrange(3) for _ in range(n)]
        b = tuple(b)
        ka, kb = order.key(a), order.key(b)
        expected = _reference_cmp(order, a, b)
        assert (ka > kb) - (ka < kb) == expected, (a, b)
        assert order.cmp(a, b) == expected
        assert (ka == kb) == (a == b)
