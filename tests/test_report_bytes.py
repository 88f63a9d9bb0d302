"""Report bytes of every default-limit fixture command, against the
SHA-256 digests kept in ``bench/digests.json``.

The report bytes are the tool's behaviour contract.  A change that
alters them on purpose re-records the digests with
``python3 bench/record.py`` and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from loccat.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))


def test_every_fixture_report_matches_its_digest(capsys, monkeypatch):
    # the commands name their fixtures relative to the repository root
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("LOCCAT_LIMITS_PROFILE", raising=False)
    drifted = []
    for command, digest in sorted(DIGESTS.items()):
        main(command.split(" "))
        out = capsys.readouterr().out.encode("utf-8")
        if hashlib.sha256(out).hexdigest() != digest:
            drifted.append(command)
    assert DIGESTS
    assert drifted == []
