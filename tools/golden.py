"""The golden corpus: the bytes each command line gives, pinned by SHA-256.

    python3 tools/golden.py            # compare with tests/fixtures/golden.json
    python3 tools/golden.py --write    # regenerate tests/fixtures/golden.json

Each command runs in process through compedge.cli.run, and its digest is the
SHA-256 of the JSON list [exit code, stdout, stderr], as the verify pins in
tests/test_cli.py take it. The wall time that montecarlo and sweep print on
stderr is masked first. The commands run in a scratch directory that holds
the six fixtures and the generated graphs below under relative names, so no
command line or echoed path depends on the checkout or a temporary directory.
tests/test_cli.py::TestGoldenCorpus runs the same corpus in tier-1. A change
that means to move bytes regenerates the file and names each moved command.
Standard library only.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = FIXTURES / "golden.json"
GRAPH_FIXTURES = ("c4.json", "c5.txt", "k3.json", "k4.json", "p4.json", "two_disjoint_edges.json")
WALL_TIME = re.compile(r"wall time \d+\.\d+s")


def seeded_graph(n: int, seed: int) -> str:
    """An edge list of 2n seeded random pairs on n vertices (duplicates dropped)."""
    rng = random.Random(seed)
    pairs = sorted({tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(2 * n)})
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


# generated inputs, by file name: graphs every graph command runs on, then
# the inputs of the exit-2 messages that tests/test_cli.py pins
GRAPHS = {
    "isolated.json": '{"n": 7, "edges": [[1, 2], [2, 3], [1, 3], [4, 5]]}',
    "one_edge.txt": "7 1\n1 2\n",
    "huge.txt": "1000000000 1\n1 2\n",
    "gnp.txt": seeded_graph(10 ** 4, 10 ** 4),
}
REFUSED = {
    "bad.txt": "3 1\n1 1\n",
    "k2.txt": "2 1\n1 2\n",
    "edgeless.json": '{"n": 4, "edges": []}',
    "edgeless25.json": '{"n": 25, "edges": []}',
    "wide.txt": "19 1\n1 2\n",
    "deep.json": '{"n": 3, "edges": ' + "[" * 2000 + "]" * 2000 + "}",
    "header_past_digit_limit.txt": "9" * 4301 + " 1\n1 2\n",
    "edge_past_digit_limit.txt": "3 1\n1 " + "9" * 4301 + "\n",
    "long_label.txt": "3 1\n1 " + "9" * 4000 + "\n",
    "long_header.txt": "9" * 4000 + " 1\n1 2\n",
    # the line numbers of edge-list errors, past blank and whitespace-only lines
    "blank_lines.txt": " \n3 2\n1 2\n\t\n2 2\n",
    "duplicate_after_blank.txt": "3 2\n1 2\n\n2 1\n",
    "out_of_range_after_blank.txt": "3 2\n1 2\n\n\n1 4\n",
    "crlf.txt": "3 2\r\n1 2\r\n\r\n3 3\r\n",
    "whitespace_only.txt": " \n\t\n  \n",
    "header_three_tokens.txt": "\n3 1 1\n1 2\n",
    "header_not_integer.txt": "\n3 x\n1 2\n",
    "header_negative.txt": "\n\n3 -1\n",
    "too_few_edges.txt": "\n3 3\n1 2\n\n2 3\n",
    "edge_three_tokens.txt": "3 2\n1 2\n\n2 3 1\n",
    "edge_not_integer.txt": "3 2\n\n1 2\n2 x\n",
    # numbers that Python's int() reads but the format does not: digit-group underscores
    "header_underscore.txt": "1_0 1\n1 2\n",
    "edge_underscore.txt": "3 1\n1 0_2\n",
}
RAW = {
    "invalid_utf8.txt": b"3 1\n1 2\xff",
    # ... and non-ASCII decimal digits, as UTF-8: ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT THREE
    "header_arabic_indic.txt": "\u0663 1\n1 2\n".encode(),
    "header_full_width.txt": "\uff13 1\n1 2\n".encode(),
    "long_json_integer.json": b'{"n": ' + b"9" * 5000 + b', "edges": []}',
}


def command_lines() -> list[list[str]]:
    """Every command of the corpus, as argv."""
    lines = []
    for graph in (*GRAPH_FIXTURES, *GRAPHS):
        for field in ("gf2", "q"):
            for flags in ([], ["--json"], ["--oracle"], ["--oracle", "--json"]):
                lines.append(["analyze", graph, *flags, "--field", field])
            lines.append(["betti", graph, "--field", field])
    lines += [["mdensity", graph] for graph in GRAPH_FIXTURES]
    lines += [["verify", "--max-n", str(n), "--field", field]
              for n in range(3, 8) for field in ("gf2", "q")]
    lines += [["montecarlo", "--n", "50", "--c", "0.5", "--trials", "20", "--seed", "7"],
              ["sweep", "--n", "40", "--c", "0.2,2,8", "--trials", "50", "--seed", "3"]]
    lines += [["--help"], ["analyze", "--help"]]
    # exit 2: unreadable, malformed and refused input, then usage errors
    for name in ("does-not-exist.json", *REFUSED, *RAW):
        lines += [["analyze", name], ["analyze", "--oracle", name], ["betti", name],
                  ["mdensity", name]]
    lines += [[], ["frobnicate"], ["betti", "p4.json", "--field", "gf3"],
              ["verify", "--max-n", "2"], ["verify", "--max-n", "8"],
              ["montecarlo", "--n", "10", "--p", "0.5", "--c", "1.0"],
              ["montecarlo", "--n", "2", "--p", "0.5"],
              ["montecarlo", "--n", "10", "--p", "nan"],
              ["montecarlo", "--n", "1000000000", "--c", "1"],
              ["montecarlo", "--n", "9" * 3000, "--c", "1"],
              ["sweep", "--n", "10", "--c", "nan,1"],
              ["sweep", "--n", "1000000000", "--c", "1,2"],
              ["sweep", "--n", "10", "--c", ",", "--trials", "5"],
              ["sweep", "--n", "10", "--c", "a,b", "--trials", "5"]]
    return lines


def digest(outcome) -> str:
    diagnostics = WALL_TIME.sub("wall time <masked>s", outcome.diagnostics)
    blob = json.dumps([outcome.exit_code, outcome.payload, diagnostics])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(directory: Path) -> dict[str, str]:
    """Write the corpus inputs into directory, run every command there, and map each
    command line to its digest. The working directory is restored after."""
    from compedge.cli import run
    for name in GRAPH_FIXTURES:
        shutil.copy(FIXTURES / name, directory / name)
    for name, text in {**GRAPHS, **REFUSED}.items():
        (directory / name).write_text(text)
    for name, raw in RAW.items():
        (directory / name).write_bytes(raw)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return {" ".join(argv): digest(run(argv)) for argv in command_lines()}
    finally:
        os.chdir(cwd)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as directory:
        table = digests(Path(directory))
    if argv:
        GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
        print(f"wrote {len(table)} digests to {GOLDEN.relative_to(ROOT)}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(line for line in table.keys() | golden.keys()
                   if table.get(line) != golden.get(line))
    for line in moved:
        print(f"moved: {line[:120]}")
    print(f"{len(table) - len(moved)} of {len(table)} commands match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
