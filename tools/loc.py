#!/usr/bin/env python3
"""Count the repository's non-test Rust lines per area.

    python3 tools/loc.py [--since REV]

An area is a path up to and including its first `src`, `examples` or
`benches` component (`crates/datalog/src`, `examples`), or else its
top-level directory. Every line of a `.rs` file counts, blank and comment
lines included, up to the file's first `#[cfg(test)]` line; files under
`vendor/`, `target/` or any `tests/` directory do not count at all.

The current tree is the working tree's tracked and untracked, not
ignored, files. With `--since REV` the script also reads each file as it
was at git revision REV (`git show`) and prints the delta per area. Run
it anywhere inside the checkout.
"""

import argparse
import subprocess
import sys
from collections import Counter
from pathlib import Path, PurePosixPath

EXCLUDED_DIRS = {"vendor", "target", "tests"}
AREA_ENDS = {"src", "examples", "benches"}


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout


def counted(path):
    p = PurePosixPath(path)
    return p.suffix == ".rs" and not EXCLUDED_DIRS.intersection(p.parts[:-1])


def area(path):
    parts = PurePosixPath(path).parts[:-1]
    for i, part in enumerate(parts):
        if part in AREA_ENDS:
            return "/".join(parts[: i + 1])
    return parts[0] if parts else "."


def non_test_lines(text):
    n = 0
    for line in text.splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        n += 1
    return n


def tally(files, read):
    lines = Counter()
    for path in files:
        if counted(path):
            lines[area(path)] += non_test_lines(read(path))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--since", metavar="REV", help="also print the delta against this revision")
    args = ap.parse_args()
    root = git(".", "rev-parse", "--show-toplevel").strip()

    # A tracked file deleted from the working tree is still listed; skip it.
    files = [p for p in git(root, "ls-files", "-co", "--exclude-standard").splitlines()
             if Path(root, p).is_file()]
    now = tally(files, lambda p: Path(root, p).read_text(encoding="utf-8", errors="replace"))
    if not args.since:
        width = max(map(len, now), default=5)
        for a in sorted(now):
            print(f"{a:<{width}}  {now[a]:>7}")
        print(f"{'total':<{width}}  {sum(now.values()):>7}")
        return 0

    rev = args.since
    old_files = git(root, "ls-tree", "-r", "--name-only", rev).splitlines()
    old = tally(old_files, lambda p: git(root, "show", f"{rev}:{p}"))
    areas = sorted(set(now) | set(old))
    width = max(map(len, areas + ["total"]))
    print(f"{'area':<{width}}  {rev[:12]:>12}  {'now':>7}  {'delta':>7}")
    for a in areas:
        print(f"{a:<{width}}  {old[a]:>12}  {now[a]:>7}  {now[a] - old[a]:>+7}")
    t_old, t_now = sum(old.values()), sum(now.values())
    print(f"{'total':<{width}}  {t_old:>12}  {t_now:>7}  {t_now - t_old:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
