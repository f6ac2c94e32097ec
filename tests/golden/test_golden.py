"""The CLI prints what the golden corpus recorded (see `regen.py`)."""

import json

import regen


def test_cli_output_matches_the_golden_corpus():
    with open(regen.CORPUS, encoding="utf-8") as fh:
        want = [json.loads(line) for line in fh]
    got = list(regen.entries())
    assert [(r["source"], r["command"]) for r in got] == [
        (r["source"], r["command"]) for r in want
    ], "the corpus inputs changed: run regen.py"
    for g, w in zip(got, want):
        assert g == w, (w["source"], w["command"])
