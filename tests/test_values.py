"""Value semantics of the immutable types; constructors of the records."""

from fractions import Fraction

import pytest

from veronese_gb.errors import DomainError
from veronese_gb.groebner import (DEFAULT_COEFF_BITS, DEFAULT_SPAIR_CAP,
                                  Budget, GBCheck, GBStats, MonomialIdeal)
from veronese_gb.orders import Block, GammaRevLex, GrevLex, Lex, Weighted
from veronese_gb.polyring import Ring, base_ring
from veronese_gb.toric import (Configuration, ToricVeroneseCertificate,
                               VeroneseLayer)
from veronese_gb.values import Value
from veronese_gb.veronese import BoundsReport, PullbackResult, VeroneseMap

S2 = base_ring(2)
LINE = Configuration(((1, 0), (1, 1)), (Fraction(1), Fraction(0)))
CURVE = Configuration(((1, 0), (1, 1), (1, 2)), (Fraction(1), Fraction(0)))

# type: (class, every field by keyword, one field, another value for it)
VALUES = {
    "Lex": (Lex, {"nvars": 3, "priority": (0, 1, 2)}, "priority", (2, 1, 0)),
    "GrevLex": (GrevLex, {"nvars": 3, "chain": (0, 1, 2)}, "chain",
                (1, 0, 2)),
    "GammaRevLex": (GammaRevLex, {"s": 2, "d": 3}, "d", 4),
    "Weighted": (Weighted, {"weights": (1, 2), "tie": GrevLex(2)}, "weights",
                 (2, 1)),
    "Block": (Block, {"front": 1, "front_order": GrevLex(1),
                      "back_order": GrevLex(2)}, "back_order", Lex(2)),
    "Ring": (Ring, {"names": ("a", "b"), "kind": "generic", "s": None,
                    "d": None, "indices": None}, "kind", "S"),
    "MonomialIdeal": (MonomialIdeal, {"ring": S2, "gens": ((0, 1), (2, 0))},
                      "gens", ((0, 1),)),
    "VeroneseMap": (VeroneseMap, {"s": 2, "d": 3}, "d", 2),
    "Configuration": (Configuration, {"points": LINE.points,
                                      "grading": LINE.grading},
                      "grading", (Fraction(1), Fraction(1, 2))),
    "VeroneseLayer": (VeroneseLayer, {"base": LINE, "d": 2,
                                      "configuration": CURVE}, "d", 3),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    cls, fields, field, new = VALUES[name]
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == "%s(%s)" % (
        name, ", ".join(f"{k}={v!r}" for k, v in fields.items()))
    assert cls(*fields.values()) == a

    other = cls(**{**fields, field: new})
    assert a != other and not a == other
    assert getattr(other, field) == new

    # another class with the same fields is another value
    twin = type("Twin", (cls,), {})(**fields)
    assert a != twin and twin != a
    assert len({a, b, twin}) == 2

    with pytest.raises(AttributeError):
        setattr(a, field, new)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and hash(a) == hash(b) and getattr(a, field) == fields[field]


def test_orders_of_different_classes_differ():
    assert Lex(3) != GrevLex(3)
    assert GammaRevLex(2, 3) != VeroneseMap(2, 3)
    assert len({Lex(3), GrevLex(3), Lex(3)}) == 2
    assert repr(Lex(2)) == "Lex(nvars=2, priority=(0, 1))"
    assert repr(GammaRevLex(2, 3)) == "GammaRevLex(s=2, d=3)"


class _Pair(Value):
    _fields = ("first", "second")


def test_value_stores_one_value_per_field():
    # Value.__init__ stores the fields in _fields order; a count that
    # differs is refused rather than shifted into other fields
    pair = _Pair(1, (2, 3))
    assert (pair.first, pair.second) == (1, (2, 3))
    assert repr(pair) == "_Pair(first=1, second=(2, 3))"
    assert pair == _Pair(1, (2, 3)) != _Pair((2, 3), 1)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError, match=f"2 fields, got {len(values)}"):
            _Pair(*values)


def test_cached_attributes_stay_out_of_equality():
    fresh, used = base_ring(3), base_ring(3)
    assert used.position["y2"] == 1
    assert used.zero_exps == (0, 0, 0)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert used.position == fresh.position

    fresh = MonomialIdeal.from_exponents(S2, [(2, 0), (0, 1)])
    used = MonomialIdeal.from_exponents(S2, [(0, 1), (2, 0)])
    assert used.contains((3, 0)) and (1, 1) in used
    assert not used.contains((1, 0))
    assert "_index" in vars(used) and "_index" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert fresh.contains((3, 0)) and not fresh.contains((1, 0))

    order = GrevLex(2)
    key = order.key((1, 1))
    assert order._cache == {(1, 1): key}
    assert order == GrevLex(2) and hash(order) == hash(GrevLex(2))


# class: field names in positional order, and the defaults of the trailing ones
RECORDS = {
    Budget: (("spair_cap", "coeff_bits"), {"coeff_bits": DEFAULT_COEFF_BITS}),
    GBStats: (("spairs", "skipped_coprime", "skipped_chain", "basis_peak"),
              {"spairs": 0, "skipped_coprime": 0, "skipped_chain": 0,
               "basis_peak": 0}),
    GBCheck: (("ok", "spairs", "pair", "remainder"),
              {"pair": None, "remainder": None}),
    PullbackResult: (("order", "groebner_basis", "reduced", "certificate",
                      "omega"), {"omega": None}),
    BoundsReport: (("s", "max_exponent", "delta", "bound", "bound_raw",
                    "rival_rough", "rival_stated"), {}),
    ToricVeroneseCertificate: (("pullback", "all_binomial", "images_equal",
                                "duplicates_linear"), {}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_constructors(cls):
    names, defaults = RECORDS[cls]
    values = list(range(7, 7 + len(names)))
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(reversed(names), reversed(values))))
    for record in (by_position, by_keyword):
        assert [getattr(record, n) for n in names] == values
    assert by_position == by_keyword and not by_position != by_keyword
    assert by_position != cls(*values[:-1], 0)
    with pytest.raises(TypeError):
        hash(by_position)
    required = names[:len(names) - len(defaults)]
    record = cls(*values[:len(required)])
    for n, default in defaults.items():
        assert getattr(record, n) == default
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[:len(required)], unknown=0)
    assert repr(by_position).startswith(f"{cls.__name__}({names[0]}=7, ")


def test_records_stay_mutable_counters():
    stats = GBStats()
    stats.spairs += 2
    assert (stats.spairs, stats.skipped_coprime, stats.skipped_chain,
            stats.basis_peak) == (2, 0, 0, 0)
    # a budget's S-pair counter starts at 0 and is not a constructor field
    budget = Budget(spair_cap=1)
    assert budget.spairs == 0
    budget.charge_spair()
    assert budget.spairs == 1
    with pytest.raises(TypeError):
        Budget(spairs=1)
    assert "check_coeff" in vars(Budget)


def test_budget_default_and_refusal(monkeypatch):
    monkeypatch.setenv("VERONESE_GB_BUDGET", "12")
    assert Budget().spair_cap == Budget(None).spair_cap == 12
    assert Budget(3).spair_cap == 3
    monkeypatch.delenv("VERONESE_GB_BUDGET")
    assert Budget().spair_cap == DEFAULT_SPAIR_CAP
    with pytest.raises(DomainError):
        Budget(spair_cap=-1)
    with pytest.raises(DomainError):
        Budget(-1)
