"""Frontend fuzzing: whatever the text, the pipeline ends in a value or diagnostics.

Two kinds of input: random text drawn from the token alphabet plus a few
stray characters, and corpus files with one token deleted, duplicated or
swapped with its successor.  Each goes through parsing, resolution, the
checker under all three profiles and the IR export, none of which may raise.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from maa.checks import check
from maa.ir import export_ir
from maa.lexer import KEYWORDS, tokenize
from maa.parser import parse_component_file
from maa.resolution import resolve
from maa.syntax import CompilationUnit, format_literal

from conftest import CORPUS, parse_model, parse_types

_SYMBOLS = ["<<", ">>", "->", "--", "==", "!=", "<=", ">=", "&&", "||", "{", "}", "[", "]",
            "(", ")", "<", ">", ",", ";", ".", "=", "|", "/", "!", "+", "-", "*", ":"]
_NAMES = ["C", "D", "S", "T", "a", "b", "o", "v", "E", "Integer", "Boolean", "String",
          "ocl", "java", "error", "Gen"]
_LITERALS = ["0", "1", "7", '"s"', '"a\\"b"']
_STRAY = ["@", "\u00a0", "²", "٣", '"', "\\", "/*", "//", "«", "»", "\t"]
_ALPHABET = sorted(KEYWORDS) + _SYMBOLS + _NAMES + _LITERALS + _STRAY

_PREFIXES = [
    "",
    "component C { ",
    "component C { port in Integer a, in Boolean b, out Integer o; Integer v = 0;"
    " automaton { state S, T; initial S / o = 1; S -> T ",
]
_SUFFIXES = ["", ";", "; } }", "; } } }"]

random_texts = st.builds(
    lambda prefix, pieces, suffix: prefix + "".join(t + sep for t, sep in pieces) + suffix,
    st.sampled_from(_PREFIXES),
    st.lists(st.tuples(st.sampled_from(_ALPHABET), st.sampled_from([" ", "", "\n"])),
             max_size=40),
    st.sampled_from(_SUFFIXES),
)

# (file to mutate, the other files of its model, its type files), parsed once
_CORPUS_FILES = [
    (path, [parse_model(p) for p in paths if p != path], [parse_types(p) for p in types])
    for paths, _profile, types in CORPUS.values()
    for path in paths
]


def _source(tok) -> str:
    return format_literal(tok.value) if tok.kind == "STRING" else tok.text


def _mutated(path, op: str, at: int) -> str:
    texts = [_source(t) for t in tokenize(path.read_text(encoding="utf-8"), str(path))[:-1]]
    i = at % len(texts)
    if op == "delete":
        del texts[i]
    elif op == "duplicate":
        texts.insert(i, texts[i])
    else:
        j = (i + 1) % len(texts)
        texts[i], texts[j] = texts[j], texts[i]
    return " ".join(texts)


def _pipeline(text: str, others=(), tunits=()) -> None:
    unit = parse_component_file(text, "fuzz.maa")
    if isinstance(unit, CompilationUnit):
        units = [*others, unit]
    else:
        assert [d.code for d in unit] == ["SYN"]
        units = list(others)
    model, _diags = resolve(units, list(tunits))
    for profile in ("generic", "ts", "ed"):
        assert isinstance(check(model, profile), list)
    assert isinstance(export_ir(model), str)


@settings(max_examples=200, deadline=None)
@given(random_texts)
def test_random_token_text_never_raises(text):
    _pipeline(text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_CORPUS_FILES), st.sampled_from(["delete", "duplicate", "swap"]),
       st.integers(min_value=0, max_value=10**6))
def test_mutated_corpus_never_raises(entry, op, at):
    path, others, tunits = entry
    _pipeline(_mutated(path, op, at), others, tunits)
