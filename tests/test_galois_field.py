"""Field-axiom tests for GF(p^m), unit + hypothesis property based."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.galois.field import GaloisField
from repro.galois.primitive import (
    is_primitive,
    multiplicative_order,
    primitive_element,
    primitive_elements,
)

FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49]


@pytest.fixture(scope="module", params=FIELD_ORDERS)
def field(request):
    return GaloisField.get(request.param)


class TestConstruction:
    def test_rejects_non_prime_powers(self):
        for q in (0, 1, 6, 10, 12, 15, 100):
            with pytest.raises(ValueError):
                GaloisField(q)

    def test_cached_instances(self):
        assert GaloisField.get(7) is GaloisField.get(7)

    def test_table_shapes(self, field):
        q = field.q
        assert field.add_table.shape == (q, q)
        assert field.mul_table.shape == (q, q)
        assert field.neg_table.shape == (q,)
        assert field.inv_table.shape == (q,)

    def test_prime_field_is_modular(self):
        f = GaloisField.get(7)
        for a in range(7):
            for b in range(7):
                assert f.add(a, b) == (a + b) % 7
                assert f.mul(a, b) == (a * b) % 7


class TestAxioms:
    def test_additive_group(self, field):
        q = field.q
        for a in range(q):
            assert field.add(a, 0) == a
            assert field.add(a, field.neg(a)) == 0
        # Commutativity via table symmetry.
        assert (field.add_table == field.add_table.T).all()

    def test_multiplicative_group(self, field):
        q = field.q
        for a in range(1, q):
            assert field.mul(a, 1) == a
            assert field.mul(a, field.inv(a)) == 1
        assert (field.mul_table == field.mul_table.T).all()

    def test_add_is_latin_square(self, field):
        q = field.q
        expect = np.arange(q)
        for a in range(q):
            assert (np.sort(field.add_table[a]) == expect).all()

    def test_mul_nonzero_is_latin_square(self, field):
        q = field.q
        expect = np.arange(1, q)
        for a in range(1, q):
            row = field.mul_table[a]
            assert (np.sort(row[1:]) == expect).all() or (
                np.sort(row[row > 0]) == expect
            ).all()

    def test_zero_annihilates(self, field):
        assert (field.mul_table[0] == 0).all()
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, data):
        q = data.draw(st.sampled_from(FIELD_ORDERS))
        f = GaloisField.get(q)
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        c = data.draw(st.integers(0, q - 1))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))

    def test_characteristic(self, field):
        # Adding 1 to itself p times yields 0.
        acc = 0
        for _ in range(field.p):
            acc = field.add(acc, 1)
        assert acc == 0

    def test_power(self, field):
        q = field.q
        for a in range(1, q):
            assert field.power(a, 0) == 1
            assert field.power(a, 1) == a
            assert field.power(a, q - 1) == 1  # Fermat/Lagrange

    def test_div_roundtrip(self, field):
        q = field.q
        for a in range(q):
            for b in range(1, q):
                assert field.mul(field.div(a, b), b) == a


class TestPrimitive:
    def test_generates_group(self, field):
        xi = primitive_element(field)
        seen = set()
        v = 1
        for _ in range(field.q - 1):
            seen.add(v)
            v = field.mul(v, xi)
        assert seen == set(range(1, field.q))

    def test_order_of_primitive(self, field):
        xi = primitive_element(field)
        assert multiplicative_order(field, xi) == field.q - 1

    def test_order_divides_group_order(self, field):
        for a in range(1, field.q):
            assert (field.q - 1) % multiplicative_order(field, a) == 0

    def test_primitive_count_is_totient(self, field):
        # There are φ(q−1) primitive elements.
        n = field.q - 1
        phi = sum(1 for k in range(1, n + 1) if np.gcd(k, n) == 1)
        assert len(primitive_elements(field)) == phi

    def test_zero_not_primitive(self, field):
        assert not is_primitive(field, 0)
        with pytest.raises(ValueError):
            multiplicative_order(field, 0)
