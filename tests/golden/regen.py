"""The golden CLI corpus: what `zeta check --json`, `zeta diagram --format
json`, `zeta diagram --format dot` and `zeta eval --json` print for every
text source behind `conftest.translated_derivations()`, namely the term
pool, the H chains of length 2 to 20, the 48 copy maps and the higher-order
share, and what `zeta rules --json` prints once. A source whose type is a
map is evaluated with `--as-map`.

Each line of `cli.jsonl` is one run through `cli.main`: the source, the
command, its exit code and its stdout, or the sha256 of a stdout longer
than `LIMIT` characters. An eval record holds its matrix instead, as the
distinct entries (`values`, each [re, im]) and, per entry in row-major
order, the index of its value (`at`), so that `test_golden.py` can compare
it to 1e-12 rather than as text. The rules record has no source and holds
the parsed report (`verdicts`), so that its scalars and deviations can be
compared to 1e-12 too. `tests/golden/test_golden.py` runs them
again and compares. After a change that is meant to alter the output,
regenerate the file from the repository root and review the diff:

    PYTHONPATH=src python tests/golden/regen.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from conftest import benchmark_sources, term_pool  # noqa: E402
from zetacalc.cli import main  # noqa: E402
from zetacalc.evaluator import matrix_from_json  # noqa: E402
from zetacalc.syntax import fn_parts, parse  # noqa: E402
from zetacalc.types import Context, infer  # noqa: E402

CORPUS = HERE / "cli.jsonl"
COMMANDS = (
    ("check", "--json"),
    ("diagram", "--format", "json"),
    ("diagram", "--format", "dot"),
)
LIMIT = 2000


def sources() -> list[str]:
    """The text sources, each once, in first-use order."""
    return list(dict.fromkeys([*term_pool(), *(src for _, src, _ in benchmark_sources())]))


def eval_command(src: str) -> tuple:
    """`eval --json`, with `--as-map` when the source's type is a map."""
    is_map = fn_parts(infer(Context(), parse(src))[0]) is not None
    return ("eval", "--as-map", "--json") if is_map else ("eval", "--json")


def encode_matrix(m: np.ndarray) -> dict:
    """The matrix as its distinct entries and each entry's value index."""
    values, at = np.unique(m.reshape(-1), return_inverse=True)
    return {
        "shape": list(m.shape),
        "values": [[float(z.real), float(z.imag)] for z in values],
        "at": at.tolist(),
    }


def decode_matrix(doc: dict) -> np.ndarray:
    values = np.array([complex(re, im) for re, im in doc["values"]], dtype=complex)
    return values[np.array(doc["at"], dtype=int)].reshape(doc["shape"])


def run(argv: list[str]) -> tuple[int, str]:
    """`cli.main` on argv: its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def entries():
    """One record per source and command, in corpus order, then the rules
    report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "term.zeta")
        for src in sources():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src)
            for command in (*COMMANDS, eval_command(src)):
                code, text = run([command[0], path, *command[1:]])
                record = {"source": src, "command": " ".join(command), "exit": code}
                if command[0] == "eval" and code == 0:
                    record["matrix"] = encode_matrix(matrix_from_json(text))
                elif len(text) > LIMIT:
                    record["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
                else:
                    record["stdout"] = text
                yield record
    code, text = run(["rules", "--json"])
    yield {"source": None, "command": "rules --json", "exit": code, "verdicts": json.loads(text)}


if __name__ == "__main__":
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for record in entries():
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
