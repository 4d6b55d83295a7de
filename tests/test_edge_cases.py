"""Error contracts and boundary behavior of the public API."""

import numpy as np
import pytest

from multinv.errors import UnknownBuiltin
from multinv.catalog import builtin
from multinv.errors import ValidationError
from multinv.groups import GLattice, close
from multinv.intlinalg import IntMatrix
from multinv.orbit_algebra import (
    LaurentElement,
    act,
    express_in_orbit_basis,
    orbit_sum,
)

from oracles import orbit_representative, parse_group_file


class TestIntMatrixContracts:
    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            IntMatrix(2, 2, [1, 2, 3])

    def test_negative_dims(self):
        with pytest.raises(ValueError):
            IntMatrix(-1, 2, ())

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_product_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2) * IntMatrix.identity(3)

    def test_apply_length_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.identity(2).apply((1, 2, 3))

    def test_vstack_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix.vstack([IntMatrix.identity(2), IntMatrix.identity(3)])

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, 3).det()


class TestLaurentContracts:
    def test_rank_mismatch_add(self):
        with pytest.raises(ValueError):
            LaurentElement.one(2) + LaurentElement.one(3)

    def test_rank_mismatch_mul(self):
        with pytest.raises(ValueError):
            LaurentElement.one(2) * LaurentElement.one(3)

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            LaurentElement(2, {(1, 2, 3): 1})

    def test_coefficients_are_integers(self):
        # a float or str is refused, not truncated to 0 or parsed
        for coeff in (0.5, 1.0, "3"):
            with pytest.raises(TypeError):
                LaurentElement(1, {(1,): coeff})
        e = LaurentElement(1, {(0,): True, (1,): np.int64(-2), (2,): np.int64(0)})
        assert e.terms == {(0,): 1, (1,): -2}
        assert all(type(c) is int for c in e.terms.values())

    def test_act_size_checked(self):
        with pytest.raises(ValueError):
            act(IntMatrix.identity(3), LaurentElement.one(2))

    def test_scalar_multiplication(self):
        e = LaurentElement(1, {(1,): 2})
        assert 3 * e == e * 3 == LaurentElement(1, {(1,): 6})
        assert (0 * e).is_zero()


ROT6 = IntMatrix.from_rows([[1, 1], [-1, 0]])  # order 6, does not preserve sup norm


class TestNormChangingOrbits:
    def test_group_order(self):
        assert close(GLattice(2, [ROT6])).order == 6

    def test_representative_can_leave_the_box(self):
        g = close(GLattice(2, [ROT6]))
        rep = orbit_representative(g, (2, 1))
        assert rep == (3, -2)
        assert max(abs(x) for x in rep) == 3  # outside a bound-2 window

    def test_express_round_trip(self):
        g = close(GLattice(2, [ROT6]))
        s = orbit_sum(g, (2, 1))
        assert len(s.terms) == 6
        assert express_in_orbit_basis(g, s) == {(3, -2): 1}


class TestBuiltinAndFileErrors:
    def test_alt2_rejected(self):
        with pytest.raises(UnknownBuiltin):
            builtin("alt2_u2")

    def test_top_level_not_object(self):
        with pytest.raises(ValidationError, match="top level"):
            parse_group_file("[1, 2, 3]")

    def test_name_must_be_string(self):
        with pytest.raises(ValidationError, match="name"):
            parse_group_file('{"name": 5, "rank": 1, "generators": []}')

    def test_metadata_must_be_object(self):
        with pytest.raises(ValidationError, match="metadata"):
            parse_group_file('{"rank": 1, "generators": [], "metadata": []}')

    def test_bool_rank_rejected(self):
        with pytest.raises(ValidationError, match="rank"):
            parse_group_file('{"rank": true, "generators": []}')

    def test_non_utf8_bytes(self):
        from multinv.errors import ParseError

        with pytest.raises(ParseError, match="UTF-8"):
            parse_group_file(b"\xff\xfe{}")


def test_direct_sum_copies_rejects_zero():
    from multinv.obstruction import direct_sum_copies

    with pytest.raises(ValueError):
        direct_sum_copies(GLattice(2, [-IntMatrix.identity(2)], "x"), 0)


def test_verify_rejects_bound_below_width():
    from multinv.orbit_algebra import alternating_d, elementary_symmetric, verify_free_decomposition

    g = close(GLattice(3, [IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])], "c3"))
    d = alternating_d(3)  # support width 2
    with pytest.raises(ValueError, match="bound"):
        verify_free_decomposition(
            g, [elementary_symmetric(3, 1)], [LaurentElement.one(3), d], 1
        )
