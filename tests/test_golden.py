"""Byte identity of the CLI: replay the recorded corpus ``tests/golden/cli.jsonl``.

Every line is an invocation recorded by ``tests/golden/make.py`` with its
exit code, stream and exact bytes; the replay runs it in-process through
``cli.run`` and ``jsonio.dumps``.  A deliberate contract change regenerates
the corpus and names the changed lines in ``CHANGES.md``.
"""

import json

from golden import make
from nsforge import cli

CASES = [json.loads(line) for line in make.CORPUS.read_text(encoding="utf-8").splitlines()]


def test_corpus_covers_every_subcommand_and_exit():
    seen = {(case["argv"][0], case["exit"]) for case in CASES if case["argv"]}
    assert len(CASES) >= 200
    assert set(cli._COMMANDS) <= {command for command, _ in seen}
    assert {code for _, code in seen} == {0, 1, 2}


def test_corpus_replays_byte_for_byte(tmp_path):
    changed = []
    for case in CASES:
        got = make.invoke(case["argv"], case["files"], case["stdin"], tmp_path)
        if got != (case["exit"], case["stream"], case["bytes"]):
            changed.append(" ".join(case["argv"]))
    assert not changed, f"{len(changed)} invocations changed, first: {changed[:5]}"
