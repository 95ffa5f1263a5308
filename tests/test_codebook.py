"""Code family construction, parsing, distance verification, and carrier
mask mapping."""

import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.codebook import (
    Codebook,
    _conference_matrix,
    codeword_to_mask,
    mask_matrix,
    parse_codebook,
    serialize_codebook,
)


def test_builtin_family_shape_and_distance(codebook):
    assert codebook.size == 56
    assert codebook.word_length == 28
    assert codebook.min_distance == 13
    # declared floor is tight: the brute-force minimum is exactly 13
    assert codebook.measured_distance == 13
    # events name codewords by index, so the words and their order are pinned
    digest = hashlib.sha256(serialize_codebook(codebook).encode()).hexdigest()
    assert digest == "dcd54783764e1d438e1c084b455e084619b182d2f554e303ff36c4deb82a0fba"
    bits = np.array([[int(b) for b in w] for w in codebook.words])
    dist = np.count_nonzero(bits[:, None] != bits[None, :], axis=2)
    assert set(dist[~np.eye(56, dtype=bool)].tolist()) == {13, 14, 15, 27}
    c = _conference_matrix()
    assert np.array_equal(c.T, -c)
    assert np.array_equal(c @ c.T, 27 * np.eye(28, dtype=int))


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
    with pytest.raises(ValueError):
        parse_codebook("name: x\nword_length: 4\nmin_distance: 3\n0000\n0011\n")
    cb = parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n0011\n")
    assert cb.min_distance == 2


def test_a_codebook_built_in_code_cannot_claim_a_false_distance():
    with pytest.raises(ValueError, match="violated by words 0 and 1 at distance 2"):
        Codebook(name="x", min_distance=3, words=("0000", "0011"))
    with pytest.raises(ValueError, match="violated by words 0 and 2 at distance 0"):
        Codebook(name="x", min_distance=1, words=("0000", "1111", "0000"))
    assert Codebook(name="x", min_distance=2, words=("0000", "0011")).size == 2


def test_parser_rejects_malformed_input():
    with pytest.raises(ValueError):  # missing name header
        parse_codebook("word_length: 4\nmin_distance: 2\n0000\n0011\n")
    with pytest.raises(ValueError):  # ragged word
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n001\n")
    with pytest.raises(ValueError):  # duplicate word
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n0000\n")
    with pytest.raises(ValueError):  # non-binary characters
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2\n0000\n0021\n")
    with pytest.raises(ValueError):  # header field after words
        parse_codebook("name: x\nword_length: 4\n0000\nmin_distance: 2\n0011\n")
    with pytest.raises(ValueError, match="line 2: repeated header field 'name'"):
        parse_codebook("name: x\nname: y\nword_length: 4\nmin_distance: 2\n0000\n0011\n")
    with pytest.raises(ValueError, match="line 2: unknown header field 'nmae'"):  # misspelt
        parse_codebook("name: x\nnmae: y\nword_length: 4\nmin_distance: 2\n0000\n0011\n")
    with pytest.raises(ValueError, match="non-integer header field"):
        parse_codebook("name: x\nword_length: four\nmin_distance: 2\n0000\n0011\n")
    with pytest.raises(ValueError, match="non-integer header field"):
        parse_codebook("name: x\nword_length: 4\nmin_distance: 2.0\n0000\n0011\n")


def test_a_codebook_measures_its_word_length():
    # the length follows from the words, so it is no constructor argument
    assert list(inspect.signature(Codebook).parameters) == ["name", "min_distance", "words"]
    cb = Codebook("x", 1, ("000", "011"))
    assert cb.word_length == 3


@pytest.mark.parametrize(
    "header, min_distance",
    [(0, 4), (3, 4), (5, 4), (5, 5)],
    # the last claims a distance the header allows and the 4-bit words do not
    ids=["zero", "longer-words", "shorter-words", "checked-before-the-distance"],
)
def test_a_word_length_header_that_disagrees_with_the_words_fails(header, min_distance):
    text = f"name: x\nword_length: {header}\nmin_distance: {min_distance}\n0000\n1111\n"
    with pytest.raises(ValueError, match=f"^word_length {header} differs from the words' length 4$"):
        parse_codebook(text)


def test_a_codebook_measures_its_distance_from_two_words():
    assert Codebook("x", 1, ("0000",)).measured_distance is None
    assert Codebook("x", 1, ("0000", "0111")).measured_distance == 3
    with pytest.raises(ValueError, match="non-binary"):
        Codebook("x", 1, ("0000", "0021"))
    with pytest.raises(ValueError, match="differ in length"):
        Codebook("x", 1, ("0000", "001"))


def test_codeword_bit_selects_group_carrier():
    lay = REFERENCE_LAYOUT
    zeros = codeword_to_mask("0" * 28, lay)
    ones = codeword_to_mask("1" * 28, lay)
    assert np.flatnonzero(zeros).tolist() == [a for a, _ in lay.group_map]
    assert np.flatnonzero(ones).tolist() == [b for _, b in lay.group_map]
    with pytest.raises(ValueError):
        codeword_to_mask("01", lay)
    with pytest.raises(ValueError):
        codeword_to_mask("0" * 27 + "2", lay)
    short = Codebook(name="x", min_distance=4, words=("0000", "1111"))
    with pytest.raises(ValueError):  # words shorter than the layout's groups
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
    with pytest.raises(ValueError):
        Codebook(name="", min_distance=2, words=("0000",))
    with pytest.raises(ValueError, match="one or more nonempty words"):
        Codebook(name="x", min_distance=1, words=("",))
    with pytest.raises(ValueError, match="min_distance 5 out of range for word_length 4"):
        Codebook(name="x", min_distance=5, words=("0000",))
    with pytest.raises(ValueError):
        Codebook(name="x", min_distance=2, words=())
    with pytest.raises(ValueError):  # ragged words
        Codebook(name="x", min_distance=2, words=("0000", "011"))
    with pytest.raises(ValueError):  # non-binary characters
        Codebook(name="x", min_distance=2, words=("0000", "0021"))
    with pytest.raises(ValueError, match="tuple or list of strings"):  # no fixed order
        Codebook(name="x", min_distance=4, words=(w for w in ("0000", "1111")))
    with pytest.raises(ValueError, match="tuple or list of strings"):
        Codebook(name="x", min_distance=4, words=("0000", 1111))
    # a list is copied into a tuple: the analysis family memo hashes the
    # codebook, and a later append cannot add a word the distance never saw
    source = ["0000", "1111"]
    cb = Codebook("x", 4, source)
    source.append("0001")
    assert cb.words == ("0000", "1111")
    assert hash(cb) == hash(Codebook("x", 4, ("0000", "1111")))
