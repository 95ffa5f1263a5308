"""Carrier layouts shared by the tests: an odd-sized one and a strategy that
draws every kind of layout CarrierLayout accepts."""

from hypothesis import assume
from hypothesis import strategies as st

from tagspot.carriers import REFERENCE_LAYOUT, CarrierLayout

# odd fft_size: 21 wide carriers of 5 thin bins, a 21-sample prefix
ODD = CarrierLayout(
    thin_per_wide=5,
    active_thin_per_wide=3,
    groups=9,
    wide_total=21,
    null_wide=frozenset({0, 10, 20}),
    fft_size=105,
    cp_fraction=0.2,
)


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
    assume(fft_size * (cp_len / fft_size) == cp_len)
    return CarrierLayout(
        thin_per_wide=thin,
        active_thin_per_wide=draw(st.integers(min_value=1, max_value=thin)),
        groups=groups,
        wide_total=wide_total,
        null_wide=frozenset(nulls),
        fft_size=fft_size,
        cp_fraction=cp_len / fft_size,
    )


VALID_LAYOUTS = st.one_of(st.just(REFERENCE_LAYOUT), st.just(ODD), _drawn_layouts())
