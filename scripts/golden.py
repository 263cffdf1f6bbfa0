"""Every pinned output of ``porlicz``, in one manifest: ``tests/golden.json``.

Each entry, under its name, is one run: ``argv`` for ``cli.main``, the
expected ``exit`` code, and the expected stdout.  A CSV or ``norm`` output is
stored as its text, ``lines`` (the text split at each newline); a JSON output
as its ``sha256`` only.  A ``run`` entry carries its ``config``, which the
runner writes to a temporary file and passes as ``--config``.

    PYTHONPATH=src python scripts/golden.py

reruns every entry, rewrites the manifest, and prints each moved exit code
and each moved cell (``entry: line L, column C: old -> new``, a column being
a comma-separated field) or digest, or ``no entry moved``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from itertools import zip_longest
from pathlib import Path

from poisson_orlicz.cli import main as cli_main

MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "golden.json"


def load() -> dict:
    """The manifest's entries by name."""
    return json.loads(MANIFEST.read_text())


def text(entry: dict) -> str:
    """The stdout an entry stores as text."""
    return "\n".join(entry["lines"])


def run(entry: dict) -> tuple[int, str]:
    """(exit code, stdout) of the entry's run, in-process through ``cli.main``."""
    argv = list(entry["argv"])
    with tempfile.TemporaryDirectory() as tmp:
        if "config" in entry:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(entry["config"], fh)
            argv += ["--config", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
    return code, out.getvalue()


def record(entry: dict, code: int, out: str) -> dict:
    """The entry as it pins this exit code and stdout, in the entry's form."""
    new = {k: entry[k] for k in ("argv", "config") if k in entry}
    new["exit"] = code
    if "sha256" in entry:
        new["sha256"] = hashlib.sha256(out.encode()).hexdigest()
    else:
        new["lines"] = out.split("\n")
    return new


def diff(name: str, old: dict, new: dict) -> list[str]:
    """One line per moved exit code, digest or cell from ``old`` to ``new``."""
    moved = []
    if old["exit"] != new["exit"]:
        moved.append(f"{name}: exit {old['exit']} -> {new['exit']}")
    if "sha256" in old:
        if old["sha256"] != new["sha256"]:
            moved.append(f"{name}: sha256 {old['sha256']} -> {new['sha256']}")
        return moved
    for i, (a, b) in enumerate(zip_longest(old["lines"], new["lines"]), 1):
        if a == b:
            continue
        cells = zip_longest([] if a is None else a.split(","),
                            [] if b is None else b.split(","), fillvalue="(none)")
        moved += [f"{name}: line {i}, column {j}: {x} -> {y}"
                  for j, (x, y) in enumerate(cells, 1) if x != y]
    return moved


def main() -> int:
    manifest = load()
    fresh = {name: record(entry, *run(entry)) for name, entry in manifest.items()}
    moved = [line for name in manifest for line in diff(name, manifest[name], fresh[name])]
    print("\n".join(moved) if moved else "no entry moved")
    MANIFEST.write_text(json.dumps(fresh, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
