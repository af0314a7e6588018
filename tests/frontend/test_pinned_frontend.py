"""The frontend's observable output is pinned.

Inputs are the 17 paper workloads and 200 ``generate_program`` seeds.
For each, the token list (kind, text, value, line, column), the
``repr`` of the parsed AST and the printed IR of ``compile_source`` are
each reduced to a sha256.  Malformed inputs are each workload truncated
at seeded positions and mutated at seeded positions by deleting or
inserting one character; for those the outcome of ``compile_source``
is pinned: the exception class and message, or the printed IR's sha256
when the input still compiles.  A rewrite of the lexer, parser or
lowering must leave all of it as it was; a change that means to alter
it rewrites the file with

    PYTHONPATH=src python tests/frontend/test_pinned_frontend.py

and the diff of the JSON shows which inputs moved.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.frontend import SourceError, compile_source, parse, tokenize
from repro.ir.printer import format_program
from repro.testing.genprog import generate_program
from repro.workloads import all_workloads

PINNED = pathlib.Path(__file__).with_name("pinned_frontend.json")

SOURCES = {f"workload/{w.name}": w.source for w in all_workloads()}
SOURCES.update((f"genprog/{seed}", generate_program(seed))
               for seed in range(200))

#: characters a mutation may insert
INSERTABLE = "abxz_019.;,(){}[]+-*/%=<>!&|^~?:'\" \n\t#@$"
#: seeded positions per workload for each kind of malformation
TRUNCATIONS = 10
MUTATIONS = 10


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def program_pins(source: str) -> dict[str, str]:
    tokens = [[t.kind.value, t.text, t.value, t.line, t.column]
              for t in tokenize(source)]
    return {
        "tokens": sha256(json.dumps(tokens)),
        "ast": sha256(repr(parse(source))),
        "ir": sha256(format_program(compile_source(source))),
    }


def outcome(source: str) -> str:
    """What ``compile_source`` makes of ``source``, as one line."""
    try:
        program = compile_source(source)
    except SourceError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok " + sha256(format_program(program))


def malformed_source(key: str) -> str:
    """Rebuild the input a ``malformed`` key names.

    Keys are ``workload/<name>/truncate/<at>``,
    ``workload/<name>/delete/<at>`` and
    ``workload/<name>/insert/<at>/<code point>``.
    """
    kind, name, action, at, *rest = key.split("/")
    source = SOURCES[f"{kind}/{name}"]
    at = int(at)
    if action == "truncate":
        return source[:at]
    if action == "delete":
        return source[:at] + source[at + 1:]
    assert action == "insert", key
    return source[:at] + chr(int(rest[0])) + source[at:]


def malformed_keys() -> list[str]:
    """Seeded malformed inputs, kept only where the outcome is a success
    or a :class:`SourceError` (inputs that crash the lexer are tested on
    their own in test_lexer_parser.py)."""
    keys = []
    for label in sorted(SOURCES):
        if not label.startswith("workload/"):
            continue
        source = SOURCES[label]
        rng = random.Random(f"pinned-frontend:{label}")
        for at in sorted(rng.sample(range(len(source)), TRUNCATIONS)):
            keys.append(f"{label}/truncate/{at}")
        for at in sorted(rng.sample(range(len(source)), MUTATIONS)):
            if rng.random() < 0.5:
                keys.append(f"{label}/delete/{at}")
            else:
                keys.append(f"{label}/insert/{at}/"
                            f"{ord(rng.choice(INSERTABLE))}")
    kept = []
    for key in keys:
        try:
            outcome(malformed_source(key))
        except Exception:  # noqa: BLE001 - such inputs are not pinned
            continue
        kept.append(key)
    return kept


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_inputs_are_complete(pinned):
    assert set(pinned["programs"]) == set(SOURCES)
    assert len(pinned["malformed"]) >= 300


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_program_matches_pinned(label, pinned):
    assert program_pins(SOURCES[label]) == pinned["programs"][label]


def test_malformed_inputs_match_pinned(pinned):
    moved = sorted(key for key, want in pinned["malformed"].items()
                   if outcome(malformed_source(key)) != want)
    assert not moved, f"diagnostics changed for {moved}"


if __name__ == "__main__":
    programs = {label: program_pins(source)
                for label, source in sorted(SOURCES.items())}
    malformed = {key: outcome(malformed_source(key))
                 for key in malformed_keys()}

    def rows(table):
        return ",\n".join(f"  {json.dumps(key)}: "
                          f"{json.dumps(table[key], sort_keys=True)}"
                          for key in sorted(table))

    # One input a line, so the diff of a rewrite names the inputs that moved.
    PINNED.write_text("{\n \"malformed\": {\n" + rows(malformed)
                      + "\n },\n \"programs\": {\n" + rows(programs)
                      + "\n }\n}\n")
    print(f"wrote {PINNED}: {len(programs)} programs, "
          f"{len(malformed)} malformed inputs")
