"""Fuzz the text parsers with mutated copies of the checked-in fixtures.

Whatever the mutation, a parser either returns an instance or raises
``ParseError``; any other exception would reach the CLI as a traceback.
Runs are derandomized, so the examples are the same on every run.
"""

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpcp.parsing import ParseError
from dpcp.rcpsp import RcpspInstance, parse_psplib
from dpcp.tsptw import TsptwInstance, parse_matrix

DATA = Path(__file__).parent / "data"
SMALL_SM = (DATA / "small.sm").read_text()
TINY_TSPTW = (DATA / "tiny_tsptw.txt").read_text()

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Replacement tokens: small integers, which hit job ids, counts and
# durations, plus the extremes, signs, fractions and junk.
TOKENS = st.one_of(
    st.integers(-1, 7).map(str),
    st.sampled_from(["0", "999999", "-999999", "1.5", "+2", "x", "-", "*", ":"]),
    st.text(alphabet="0123456789-+. :*xR", min_size=1, max_size=4),
)


@st.composite
def mutated(draw, text: str):
    """``text`` after one to six line or token edits, possibly truncated.

    Token edits, the most common kind, change a line that holds a digit,
    so most edits land in the data rather than the headers.
    """
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 6))):
        if not lines:
            break
        kind = draw(
            st.sampled_from(["token", "token", "token", "token", "drop", "dup", "swap", "insert"])
        )
        data = [k for k, line in enumerate(lines) if any(c.isdigit() for c in line)]
        i = draw(st.sampled_from(data)) if kind == "token" and data else draw(
            st.integers(0, len(lines) - 1)
        )
        if kind == "token":
            toks = lines[i].split()
            if toks:
                j = draw(st.integers(0, len(toks) - 1))
                toks[j] = draw(TOKENS)
            else:
                toks = [draw(TOKENS)]
            lines[i] = " ".join(toks)
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        else:
            extra = draw(st.lists(TOKENS, min_size=1, max_size=4))
            lines.insert(i, " ".join(extra))
    out = "\n".join(lines) + "\n"
    if draw(st.integers(0, 19)) == 0:
        out = out[: draw(st.integers(0, len(out)))]
    return out


@FUZZ
@given(mutated(SMALL_SM))
def test_parse_psplib_fuzz(text):
    try:
        instance = parse_psplib(text)
    except ParseError:
        return
    assert isinstance(instance, RcpspInstance)


@FUZZ
@given(mutated(TINY_TSPTW))
def test_parse_matrix_fuzz(text):
    try:
        instance = parse_matrix(text)
    except ParseError:
        return
    assert isinstance(instance, TsptwInstance)


def test_fixtures_parse_unmutated():
    assert parse_psplib(SMALL_SM).n == 4
    assert parse_matrix(TINY_TSPTW).n == 3


