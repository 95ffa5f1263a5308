"""Carrier layouts shared by the tests: an odd-sized one, a 32-wide one and
a strategy that draws every kind of layout CarrierLayout accepts."""

from hypothesis import strategies as st

from tagspot.carriers import REFERENCE_LAYOUT, CarrierLayout

# odd fft_size: 21 wide carriers of 5 thin bins, a 21-sample prefix
ODD = CarrierLayout(thin_per_wide=5, active_thin_per_wide=3, groups=9,
                   null_wide=frozenset({0, 10, 20}), cp_fraction=0.2)

# 32 wide carriers of 8 thin bins: 12 two-carrier groups and 8 nulls
SMALL = CarrierLayout(groups=12, null_wide=frozenset({0, 1, 2, 16, 28, 29, 30, 31}))


@st.composite
def _drawn_layouts(draw):
    thin = draw(st.integers(min_value=1, max_value=8))
    groups = draw(st.integers(min_value=1, max_value=12))
    wide_total = 2 * groups + draw(st.integers(min_value=0, max_value=6))
    nulls = draw(st.sets(st.integers(min_value=0, max_value=wide_total - 1),
                         min_size=wide_total - 2 * groups,
                         max_size=wide_total - 2 * groups))
    fft_size = wide_total * thin
    cp_len = draw(st.integers(min_value=1, max_value=fft_size))
    return CarrierLayout(
        thin_per_wide=thin,
        active_thin_per_wide=draw(st.integers(min_value=1, max_value=thin)),
        groups=groups,
        null_wide=frozenset(nulls),
        cp_fraction=cp_len / fft_size,
    )


VALID_LAYOUTS = st.one_of(st.just(REFERENCE_LAYOUT), st.just(ODD), _drawn_layouts())
