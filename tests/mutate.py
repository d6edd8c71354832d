"""Apply every mutant in ``tests/mutants.json`` and check the suite kills it.

A mutant is one textual edit to one file: ``search`` (which must occur
exactly once) becomes ``replace``.  Each names the test node ids that
must fail once it is applied.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory — the working tree is never
edited — checks that the union of the listed ids passes there
unmutated, then applies each mutant alone, runs only its ids and
restores the file.

    PYTHONPATH=src python tests/mutate.py              # every mutant
    PYTHONPATH=src python tests/mutate.py ID [ID ...]  # a few of them
    python tests/mutate.py --root OTHER_CHECKOUT --mutants FILE

Exit status 0 means every selected mutant applied and was killed; 1 means
one did not apply, survived, or its ids failed unmutated.  Hypothesis
runs with a fixed seed and without shrinking, so a kill is reproducible
and costs one failing example.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
# A pytest plugin written into the copy: Hypothesis's default profile
# without the shrink phase (a mutant dies on its first failing example).
PLUGIN = "mutate_profile"
PLUGIN_SOURCE = """\
from hypothesis import Phase, settings

settings.register_profile("mutate", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutate")
"""


def pytest_run(workdir: Path, node_ids: list[str]) -> tuple[int, str]:
    """Run ``node_ids`` in ``workdir``; return pytest's exit code and
    the tail of its output."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-x", "-q", "--no-header",
            "-p", "no:cacheprovider", "-p", PLUGIN, "--hypothesis-seed=0",
            *node_ids,
        ],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode, "\n".join(proc.stdout.splitlines()[-5:])


def copy_tree(root: Path, workdir: Path) -> None:
    for name in COPIED:
        source = root / name
        if source.is_dir():
            shutil.copytree(source, workdir / name, ignore=IGNORED)
        else:
            shutil.copy2(source, workdir / name)
    (workdir / f"{PLUGIN}.py").write_text(PLUGIN_SOURCE)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="run only these mutant ids")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and tests/ are mutated")
    parser.add_argument("--mutants", type=Path, default=None,
                        help="mutant list (default: ROOT/tests/mutants.json)")
    args = parser.parse_args(argv)

    listing = json.loads(
        (args.mutants or args.root / "tests" / "mutants.json").read_text()
    )
    mutants = listing["mutants"]
    if args.ids:
        unknown = set(args.ids) - {m["id"] for m in mutants}
        if unknown:
            parser.error(f"unknown mutant ids: {sorted(unknown)}")
        mutants = [m for m in mutants if m["id"] in args.ids]

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        copy_tree(args.root, workdir)

        failures = 0
        rows: list[tuple[str, str, str]] = []
        applicable = []
        for mutant in mutants:
            text = (workdir / mutant["file"]).read_text()
            found = text.count(mutant["search"])
            if found != 1:
                rows.append((mutant["id"], f"NOT APPLIED ({found} matches)", ""))
                failures += 1
            else:
                applicable.append(mutant)

        union = list(dict.fromkeys(i for m in applicable for i in m["killed_by"]))
        if union:
            code, tail = pytest_run(workdir, union)
            if code != 0:
                print(f"the listed ids fail unmutated (pytest exit {code}):\n{tail}")
                return 1

        for mutant in applicable:
            path = workdir / mutant["file"]
            original = path.read_text()
            path.write_text(original.replace(mutant["search"], mutant["replace"]))
            started = time.monotonic()
            try:
                code, tail = pytest_run(workdir, mutant["killed_by"])
            finally:
                path.write_text(original)
            seconds = f"{time.monotonic() - started:.1f}s"
            if code == 1:
                verdict = "killed"
            else:
                verdict = "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
                failures += 1
                print(tail, file=sys.stderr)
            rows.append((mutant["id"], verdict, seconds))
            print(f"{mutant['id']}: {verdict} ({seconds})", file=sys.stderr, flush=True)

    width = max((len(row[0]) for row in rows), default=2)
    print(f"{'mutant':<{width}}  verdict  time")
    for mutant_id, verdict, seconds in rows:
        print(f"{mutant_id:<{width}}  {verdict}  {seconds}")
    killed = sum(1 for row in rows if row[1] == "killed")
    print(f"{killed}/{len(rows)} killed, {len(listing.get('retired', []))} retired")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
