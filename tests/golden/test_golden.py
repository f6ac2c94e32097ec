"""The CLI prints what the golden corpus recorded (see `regen.py`)."""

import json

import numpy as np

import regen

EXACT_FIELDS = ("rule", "bindings", "status", "detail", "method")


def _close(a, b) -> bool:
    """Two scalars ([re, im] or None) or deviations (float or None) within
    1e-12 of each other."""
    if a is None or b is None:
        return a is b
    return np.abs(np.subtract(a, b)).max() <= 1e-12


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
        if "verdicts" in w and "verdicts" in g:
            gv, wv = g.pop("verdicts"), w.pop("verdicts")
            assert len(gv) == len(wv), where
            for a, b in zip(gv, wv):
                assert set(a) == set(b), (where, b["rule"])
                assert [a[k] for k in EXACT_FIELDS] == [b[k] for k in EXACT_FIELDS], where
                assert _close(a["scalar"], b["scalar"]), (where, b["rule"], b["bindings"])
                assert _close(a["deviation"], b["deviation"]), (where, b["rule"], b["bindings"])
        assert g == w, where
