"""The host-state index is push-based: no process-global mutation epoch
and no all-node fingerprint scan may come back into ``src/``."""

from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_BANNED = ("NODE_MUTATION_EPOCH", "_fingerprint_scan")


def test_no_global_epoch_or_fingerprint_scan_in_src():
    offenders = [
        f"{path.relative_to(_SRC)}:{lineno}: {name}"
        for path in sorted(_SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for name in _BANNED
        if name in line
    ]
    assert not offenders, "\n".join(offenders)
