"""The CLI prints what the golden corpus recorded (see `regen.py`)."""

import json

import numpy as np

import regen


def test_cli_output_matches_the_golden_corpus():
    with open(regen.CORPUS, encoding="utf-8") as fh:
        want = [json.loads(line) for line in fh]
    got = list(regen.entries())
    assert [(r["source"], r["command"]) for r in got] == [
        (r["source"], r["command"]) for r in want
    ], "the corpus inputs changed: run regen.py"
    for g, w in zip(got, want):
        where = (w["source"], w["command"])
        if "matrix" in w and "matrix" in g:
            a, b = regen.decode_matrix(g.pop("matrix")), regen.decode_matrix(w.pop("matrix"))
            assert a.shape == b.shape, where
            assert np.abs(a - b).max() <= 1e-12, where
        assert g == w, where
