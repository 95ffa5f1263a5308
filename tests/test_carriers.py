"""Carrier grid geometry and layout serialization."""

import dataclasses

import pytest
from hypothesis import given

from tagspot.carriers import (
    REFERENCE_LAYOUT,
    CarrierLayout,
    layout_from_dict,
    layout_to_dict,
)
from layouts import VALID_LAYOUTS


def test_reference_layout_shape():
    lay = REFERENCE_LAYOUT
    assert lay.fft_size == 512
    assert lay.wide_total == 64
    assert lay.thin_per_wide == 8
    assert lay.active_thin_per_wide == 4
    assert lay.groups == 28
    assert lay.cp_len == 128
    assert lay.frame_len == 640
    assert lay.null_wide == frozenset({0, 1, 2, 32, 60, 61, 62, 63})


def test_dc_wide_carrier_is_null():
    # index 256 is DC under the ascending-frequency convention, wide 32
    lay = REFERENCE_LAYOUT
    assert (lay.fft_size // 2) // lay.thin_per_wide == lay.wide_total // 2
    assert lay.wide_total // 2 in lay.null_wide


def test_band_excludes_nulls_and_covers_the_rest():
    lay = REFERENCE_LAYOUT
    band = lay.band_wide
    assert len(band) == 56
    assert set(band) & lay.null_wide == set()
    assert set(band) | lay.null_wide == set(range(lay.wide_total))
    assert list(band) == sorted(band)


def test_group_map_pairs_adjacent_band_carriers():
    lay = REFERENCE_LAYOUT
    groups = lay.group_map
    assert len(groups) == 28
    # groups tile the band in order, lower carrier first
    assert [w for pair in groups for w in pair] == list(lay.band_wide)
    for a, b in groups:
        assert a < b


def test_active_thin_offsets_are_the_central_block():
    assert REFERENCE_LAYOUT.active_thin_offsets.tolist() == [2, 3, 4, 5]


DERIVED = ("band_wide", "group_map", "active_thin_offsets", "centered_wide")


def test_derived_geometry_is_built_once():
    lay = CarrierLayout()
    for name in DERIVED:
        assert getattr(lay, name) is getattr(lay, name)


@given(VALID_LAYOUTS)
def test_group_map_pairs_the_band_on_any_valid_layout(lay):
    band = lay.band_wide
    assert list(band) == sorted(set(range(lay.wide_total)) - lay.null_wide)
    # consecutive band carriers pair up, and each lands in exactly one group
    assert len(lay.group_map) == lay.groups
    assert [w for pair in lay.group_map for w in pair] == list(band)


@given(VALID_LAYOUTS)
def test_equal_layouts_compare_and_hash_equal_whatever_their_cache(lay):
    # replace() builds a new instance from the fields, so its cache is empty
    empty, filled = dataclasses.replace(lay), dataclasses.replace(lay)
    for name in DERIVED:
        getattr(filled, name)
    for a, b in ((empty, filled), (lay, empty), (lay, filled)):
        assert a == b and hash(a) == hash(b)
    assert {filled: "found"}[empty] == "found"


def test_centered_wide_index_is_symmetric():
    centered = REFERENCE_LAYOUT.centered_wide
    assert centered[0] == -31.5
    assert centered[63] == 31.5
    assert centered[31] + centered[32] == 0.0


def test_layout_rejects_inconsistent_geometry():
    with pytest.raises(ValueError):
        CarrierLayout(wide_total=60)  # 60 * 8 != 512
    with pytest.raises(ValueError):
        CarrierLayout(groups=27)  # 2*27 + 8 nulls != 64
    with pytest.raises(ValueError):
        CarrierLayout(active_thin_per_wide=9)
    with pytest.raises(ValueError):
        CarrierLayout(cp_fraction=0.3)  # not a whole number of samples
    for longer_than_a_body in (1.5, 2.0):
        with pytest.raises(ValueError, match="cp_fraction"):
            CarrierLayout(cp_fraction=longer_than_a_body)
    with pytest.raises(ValueError):
        CarrierLayout(null_wide=frozenset({0, 1, 2, 32, 60, 61, 62, 64}))
    with pytest.raises(ValueError, match="null_wide repeats"):  # nine entries, eight carriers
        CarrierLayout(null_wide=[0, 1, 2, 32, 60, 61, 62, 63, 63])
    with pytest.raises(ValueError, match="groups"):
        CarrierLayout(groups=0, wide_total=4, null_wide=frozenset(range(4)), fft_size=32)


# one two-carrier group on two wide carriers: valid with groups=1
ONE_GROUP = {"wide_total": 2, "null_wide": frozenset(), "fft_size": 16}


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"fft_size": 512.0}, "fft_size"),
        ({"thin_per_wide": 8.0}, "thin_per_wide"),
        ({**ONE_GROUP, "groups": True}, "groups"),
        ({"null_wide": frozenset({0, 1, 2, 32.0, 60, 61, 62, 63})}, "null_wide"),
        ({"cp_fraction": "0.25"}, "cp_fraction"),
    ],
    ids=["float-fft-size", "float-thin-per-wide", "bool-groups", "float-null", "string-cp"],
)
def test_layout_rejects_wrong_field_types(fields, named):
    # a wrong type fails on construction, naming its field, not later in its users
    with pytest.raises(ValueError, match=f"^{named} must"):
        CarrierLayout(**fields)


def test_null_wide_may_be_a_generator():
    # it is read once, for the checks and the stored set alike
    assert CarrierLayout(null_wide=(w for w in sorted(REFERENCE_LAYOUT.null_wide))) == REFERENCE_LAYOUT


def test_layout_dict_roundtrip():
    lay = REFERENCE_LAYOUT
    data = layout_to_dict(lay)
    assert data["null_wide"] == sorted(lay.null_wide)
    assert layout_from_dict(data) == lay
    with pytest.raises(ValueError):
        layout_from_dict({"fft_size": 512, "bogus": 1})
    for bad in (None, [512], {"fft_size": "512"}, {"groups": True},
                {"cp_fraction": float("inf")}, {"cp_fraction": 1e307}, {"null_wide": 3},
                {"null_wide": [0, 1, 2, 32, 60, 61, 62, 63.7]}, {"null_wide": [[0]]},
                {"null_wide": [0, 1, 2, 32, 60, 61, 62, 63, 63]}):
        with pytest.raises(ValueError):
            layout_from_dict(bad)
