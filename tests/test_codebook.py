"""Code family parsing, distance verification, and carrier mask mapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.codebook import (
    Codebook,
    CodebookError,
    codeword_to_mask,
    mask_matrix,
    parse_codebook,
    serialize_codebook,
    verify_min_distance,
)


def test_builtin_family_shape_and_distance(codebook):
    assert codebook.size == 56
    assert codebook.word_length == 28
    assert codebook.min_distance == 13
    # declared floor is tight: the brute-force minimum is exactly 13
    assert verify_min_distance(codebook.words) == 13


def test_parse_serialize_roundtrip(codebook):
    text = serialize_codebook(codebook)
    again = parse_codebook(text)
    assert again == codebook
    assert serialize_codebook(again) == text


def test_parser_ignores_comments_and_blank_lines():
    cb = parse_codebook(
        "# a tiny family\nname: tiny\n\nword_length: 4\nmin_distance: 4\n"
        "0000\n# interior comment\n1111\n"
    )
    assert cb.words == ("0000", "1111")
    assert cb.size == 2


def test_declared_distance_is_reverified():
    with pytest.raises(CodebookError):
        parse_codebook("name: x\nword_length: 4\nmin_distance: 3\n0000\n0011\n")
    cb = parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n0011\n")
    assert cb.min_distance == 2


def test_a_codebook_built_in_code_cannot_claim_a_false_distance():
    with pytest.raises(CodebookError, match="violated by words 0 and 1 at distance 2"):
        Codebook(name="x", word_length=4, min_distance=3, words=("0000", "0011"))
    with pytest.raises(CodebookError, match="violated by words 0 and 2 at distance 0"):
        Codebook(name="x", word_length=4, min_distance=1, words=("0000", "1111", "0000"))
    assert Codebook(name="x", word_length=4, min_distance=2, words=("0000", "0011")).size == 2


def test_parser_rejects_malformed_input():
    with pytest.raises(CodebookError):  # missing name header
        parse_codebook("word_length: 4\nmin_distance: 2\n0000\n0011\n")
    with pytest.raises(CodebookError):  # ragged word
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n001\n")
    with pytest.raises(CodebookError):  # duplicate word
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n0000\n")
    with pytest.raises(CodebookError):  # non-binary characters
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n0021\n")
    with pytest.raises(CodebookError):  # header field after words
        parse_codebook("name: x\nword_length: 4\n0000\nmin_distance: 2\n0011\n")


def test_verify_min_distance_requires_two_words():
    with pytest.raises(CodebookError):
        verify_min_distance(("0000",))
    with pytest.raises(CodebookError):  # non-binary character
        verify_min_distance(("0000", "0021"))
    with pytest.raises(CodebookError):  # words of unequal length
        verify_min_distance(("0000", "001"))


def test_codeword_bit_selects_group_carrier():
    lay = REFERENCE_LAYOUT
    zeros = codeword_to_mask("0" * 28, lay)
    ones = codeword_to_mask("1" * 28, lay)
    assert np.flatnonzero(zeros).tolist() == [a for a, _ in lay.group_map]
    assert np.flatnonzero(ones).tolist() == [b for _, b in lay.group_map]
    with pytest.raises(CodebookError):
        codeword_to_mask("01", lay)
    with pytest.raises(CodebookError):
        codeword_to_mask("0" * 27 + "2", lay)
    short = Codebook(name="x", word_length=4, min_distance=4, words=("0000", "1111"))
    with pytest.raises(CodebookError):  # words shorter than the layout's groups
        mask_matrix(short, lay)


@given(st.integers(0, 2**28 - 1), st.integers(0, 2**28 - 1))
def test_mask_difference_doubles_hamming_distance(x, y):
    lay = REFERENCE_LAYOUT
    wx, wy = format(x, "028b"), format(y, "028b")
    d = sum(a != b for a, b in zip(wx, wy))
    mx = codeword_to_mask(wx, lay)
    my = codeword_to_mask(wy, lay)
    assert np.count_nonzero(mx != my) == 2 * d


def test_codebook_construction_validation():
    with pytest.raises(CodebookError):
        Codebook(name="", word_length=4, min_distance=2, words=("0000",))
    with pytest.raises(CodebookError):
        Codebook(name="x", word_length=4, min_distance=5, words=("0000",))
    with pytest.raises(CodebookError):
        Codebook(name="x", word_length=4, min_distance=2, words=())
    with pytest.raises(CodebookError):  # words shorter than word_length
        Codebook(name="x", word_length=4, min_distance=2, words=("000", "011"))
    with pytest.raises(CodebookError):  # ragged words
        Codebook(name="x", word_length=4, min_distance=2, words=("0000", "011"))
    with pytest.raises(CodebookError):  # non-binary characters
        Codebook(name="x", word_length=4, min_distance=2, words=("0000", "0021"))
