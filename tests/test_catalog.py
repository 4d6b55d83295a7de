import math

import pytest

from multinv.catalog import (
    DEFAULT_BUILTINS,
    builtin,
    builtin_order_factors,
    parse_group_definition,
    parse_group_file,
    serialize_group_definition,
)
from multinv.errors import ParseError, UnknownBuiltin, ValidationError
from multinv.groups import close
from multinv.intlinalg import IntMatrix
from multinv.isotropy import is_fixed_point_free

from oracles import sl2_f5_histogram_oracle


EXPECTED_ORDERS = {
    "rank3_order2": 2,
    "rank3_order4": 4,
    "rank3_order6": 6,
    "sym3_u3": math.factorial(3),
    "sym4_u4": math.factorial(4),
    "alt3_u3": math.factorial(3) // 2,
    "alt4_u4": math.factorial(4) // 2,
    "root_a2": math.factorial(3),
    "root_a3": math.factorial(4),
    "diag_sl2": 2,
    "diag_sl3": 4,
    "diag_sl4": 8,
    "signed_root_s5": 240,
    "icosian": 120,
}


def test_every_builtin_closes_to_documented_order():
    for name in DEFAULT_BUILTINS:
        group = close(builtin(name))
        assert group.order == EXPECTED_ORDERS[name], name
        assert math.prod(builtin_order_factors(name)) == group.order, name


def test_closed_form_order_of_an_unknown_name_raises():
    for name in ("nonsense", "rank3_order8", "sym3_u4", "root_a1"):
        with pytest.raises(UnknownBuiltin):
            builtin_order_factors(name)


def test_rank3_order6_cube_is_negative_identity():
    g = builtin("rank3_order6").generators[0]
    assert g * g * g == -IntMatrix.identity(3)
    assert close(builtin("rank3_order6")).order == 6


def test_parametric_names():
    assert close(builtin("sym5_u5")).order == 120
    assert builtin("sym5").rank == 5
    assert builtin("alt5_u5").rank == 5
    with pytest.raises(UnknownBuiltin):
        builtin("sym3_u4")
    with pytest.raises(UnknownBuiltin):
        builtin("nonsense")


def test_icosian_fixed_point_free_rank8():
    lat = builtin("icosian")
    assert lat.rank == 8
    group = close(lat)
    assert group.order == 120
    assert is_fixed_point_free(group)


# the generator matrices as built in exact rational quaternion arithmetic
ICOSIAN_GENERATORS = (
    [[4, 6, 3, 1, 2, 5, 0, 0], [-2, -3, -2, -1, -1, -3, 0, 0], [-3, -1, -1, -1, 0, 0, -2, -5],
     [2, 1, 1, 1, 0, 0, 1, 3], [2, 2, 3, 1, 2, 4, 0, 1], [0, -1, -1, 0, -1, -2, 1, 2],
     [0, -1, 1, 3, 0, -1, 1, 1], [-2, -3, -2, -2, -1, -2, 0, 0]],
    [[5, 3, 2, 3, -1, 0, 2, 5], [-3, -2, -2, -2, 0, -1, -1, -3], [3, 4, 5, 4, 2, 5, 1, 0],
     [-1, -2, -2, -1, -1, -3, 0, 1], [2, 2, 1, -1, 1, 2, 0, 1], [-3, -3, -3, -2, -1, -3, -1, -1],
     [1, 0, 2, 2, 1, 2, 1, 1], [-4, -2, -3, -4, 0, -1, -2, -4]],
)


def test_icosian_generators_unchanged():
    assert tuple(g.row_lists() for g in builtin("icosian").generators) == ICOSIAN_GENERATORS


def test_icosian_histogram_matches_field_oracle():
    from multinv.groups import element_order_histogram

    group = close(builtin("icosian"))
    assert element_order_histogram(group) == sl2_f5_histogram_oracle()
    # frozen expected values from the oracle
    assert sl2_f5_histogram_oracle() == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}


class TestGroupFiles:
    def test_round_trip(self):
        lat = builtin("rank3_order4")
        text = serialize_group_definition(lat, {"source": "builtin"})
        parsed = parse_group_definition(text)
        assert parsed.lattice.rank == 3
        assert parsed.lattice.generators == lat.generators
        assert parsed.metadata == {"source": "builtin"}

    def test_neg_identity_file(self):
        text = '{"name": "neg2", "rank": 2, "generators": [[[-1, 0], [0, -1]]]}'
        lat = parse_group_file(text)
        assert close(lat).order == 2

    def test_singular_generator_rejected(self):
        text = '{"name": "bad", "rank": 2, "generators": [[[2, 0], [0, 1]]]}'
        with pytest.raises(ValidationError, match="generators"):
            parse_group_file(text)

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_group_file("{not json")

    def test_wrong_shape(self):
        text = '{"name": "bad", "rank": 2, "generators": [[[1, 0, 0], [0, 1, 0]]]}'
        with pytest.raises(ValidationError, match=r"generators\[0\]"):
            parse_group_file(text)

    def test_non_integer_entries(self):
        text = '{"name": "bad", "rank": 1, "generators": [[[1.5]]]}'
        with pytest.raises(ValidationError, match="integers"):
            parse_group_file(text)

    def test_missing_rank(self):
        with pytest.raises(ValidationError, match="rank"):
            parse_group_file('{"name": "x", "generators": []}')


def test_structured_abelianizations():
    from multinv.groups import abelianization, full_subgroup

    signed = close(builtin("signed_root_s5"))
    assert abelianization(full_subgroup(signed)) == (2, 2)
    flips = close(builtin("diag_sl4"))
    assert abelianization(full_subgroup(flips)) == (2, 2, 2)


def test_catalog_contains_full_group_and_trivial_subgroup():
    from multinv.isotropy import enumerate_isotropy_groups, witness_vector

    for name in DEFAULT_BUILTINS:
        group = close(builtin(name))
        catalog = enumerate_isotropy_groups(group)
        assert catalog.classes[0].order == group.order, name
        assert catalog.classes[-1].order == 1, name
        assert witness_vector(group, catalog.classes[0].subgroup) == (0,) * group.lattice.rank
