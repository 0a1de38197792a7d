"""Byte-identity of CLI documents against recorded digests.

`cli_golden.json` maps each request (its argv, joined by `shlex.join`) to
the SHA-256 of f"{exit code}\\n{stdout}" as the CLI printed it when the
file was recorded.  The requests cover every subcommand in JSON and CSV,
refusals with exit 2, 3 and 4 included.  Stderr is not part of the digest.
A change that alters a document on purpose updates that request's digest
by hand and says why.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from semisimple.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and the SHA-256 of f"{exit code}\\n{stdout}"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_documents_and_exit_codes_match_the_recorded_digests():
    codes, changed = set(), []
    for request, digest in GOLDEN.items():
        code, got = _run(shlex.split(request))
        codes.add(code)
        if got != digest:
            changed.append(request)
    assert not changed, f"{len(changed)} of {len(GOLDEN)} requests changed, e.g. {changed[:5]}"
    assert codes == {0, 2, 3, 4}
    commands = {shlex.split(request)[0] for request in GOLDEN}
    assert commands == {"fusion", "decompose", "invariants", "padic", "brauer", "bounds", "selftest", "nosuch"}
