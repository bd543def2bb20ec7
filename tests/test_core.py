import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pageval.core import (
    EditCounts,
    IngestionError,
    PageTranscript,
    StructureError,
    Trace,
    join_words,
    tokenize_page,
)


def test_tokenize_splits_on_whitespace_runs():
    page = tokenize_page("to be\nor not")
    assert page.lines == (("to", "be"), ("or", "not"))
    assert tokenize_page("to \t  be").lines == (("to", "be"),)


def test_tokenize_keeps_punctuation_attached():
    assert tokenize_page("be, that").lines == (("be,", "that"),)


def test_tokenize_empty_input():
    page = tokenize_page("")
    assert page.lines == ()
    assert page.word_count == 0


def test_tokenize_preserves_empty_lines():
    page = tokenize_page("a\n\nb")
    assert page.lines == (("a",), (), ("b",))


def test_tokenize_rejects_invalid_utf8_with_offset():
    with pytest.raises(IngestionError, match="byte offset 3"):
        tokenize_page(b"abc\xff\xfe", page_id="p")


def test_tokenize_drops_a_leading_bom():
    text = "To be or not to be"
    bom = b"\xef\xbb\xbf"
    plain = tokenize_page(text.encode("utf-8"), page_id="p")
    assert tokenize_page(bom + text.encode("utf-8"), page_id="p") == plain
    assert tokenize_page("\ufeff" + text, page_id="p") == plain
    assert plain.words[0] == "To"
    # only a leading mark is a BOM; one inside a word stays text
    assert tokenize_page("a\ufeffb").words == ("a\ufeffb",)


def test_tokenize_reports_file_offsets_after_a_bom():
    # the bad byte is byte 6 of the input, BOM included
    with pytest.raises(IngestionError, match="byte offset 6"):
        tokenize_page(b"\xef\xbb\xbfabc\xff", page_id="p")


def test_tokenize_accepts_utf8_bytes():
    page = tokenize_page("café naïve".encode("utf-8"))
    assert page.lines == (("café", "naïve"),)
    assert page.char_count == 4 + 1 + 5


def test_flatten_concatenates_lines():
    page = PageTranscript((("a", "b"), ("c",)))
    assert page.words == ("a", "b", "c")
    assert PageTranscript(()).words == ()


def test_string_line_is_rejected():
    # a line given as a string would otherwise become one-letter words
    with pytest.raises(StructureError, match="sequence of words"):
        PageTranscript(("abc", ("d",)))
    with pytest.raises(StructureError, match="sequence of words"):
        PageTranscript("ab")
    assert PageTranscript((["abc"], ("d",))).words == ("abc", "d")


def test_flatten_ex1_reference():
    page = tokenize_page("To be or not to be, that is the question")
    words = page.words
    assert len(words) == 10
    assert words[-1] == "question"


def test_char_count_includes_word_separators():
    page = tokenize_page("To be or not to be, that is the question")
    assert page.char_count == 40


def test_token_invariants_enforced():
    with pytest.raises(StructureError):
        PageTranscript((("",),))
    with pytest.raises(StructureError):
        PageTranscript((("a b",),))


# every code point for which str.isspace() holds
WHITESPACE = [chr(i) for i in range(0x110000) if chr(i).isspace()]


@pytest.mark.parametrize("position", ["start", "middle", "end"])
def test_every_whitespace_code_point_in_a_token_is_rejected(position):
    assert len(WHITESPACE) == 29
    for c in WHITESPACE:
        tok = {"start": c + "ab", "middle": "a" + c + "b", "end": "ab" + c}[position]
        with pytest.raises(StructureError, match="whitespace"):
            PageTranscript((("x", tok),))


@settings(deadline=None)
@given(
    st.lists(
        st.lists(st.text(alphabet="abcxyz,.", min_size=1, max_size=6), max_size=5),
        max_size=5,
    )
)
def test_tokenize_idempotent_under_reserialization(lines):
    # trailing empty lines are invisible in plain text, so normalize them
    # away before comparing the round trip
    while lines and not lines[-1]:
        lines.pop()
    raw = "\n".join(" ".join(line) for line in lines)
    page = tokenize_page(raw)
    again = tokenize_page("\n".join(" ".join(line) for line in page.lines))
    assert again.lines == page.lines
    assert sum(len(line) for line in page.lines) == len(page.words)


def test_join_words_single_spaces():
    assert join_words(["a", "b,", "c"]) == "a b, c"
    assert join_words([]) == ""


def test_edit_counts_identities():
    c = EditCounts(insertions=1, substitutions=2, deletions=3, correct=4)
    assert c.errors == 6
    assert c.reference_length == 9
    assert c.hypothesis_length == 7
    assert (c + c).errors == 12
    with pytest.raises(StructureError):
        EditCounts(insertions=-1)


def test_trace_sequentiality_validation():
    Trace(((0, 0), (None, 1), (1, 2))).validate(2, 3)
    with pytest.raises(StructureError):
        Trace(((0, 1), (1, 0))).validate(2, 2)
    with pytest.raises(StructureError):
        Trace(((0, 0), (0, 1))).validate(2, 2)
    with pytest.raises(StructureError):
        Trace(((None, None),)).validate(1, 1)
