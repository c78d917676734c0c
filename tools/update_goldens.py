#!/usr/bin/env python3
"""Golden bench outputs: check them, and regenerate them with a version bump.

bench/golden/<bench>.txt is the stdout of each bench in
bench/golden/manifest.txt at that file's arguments (README "Goldens").
bench/golden/engine_versions.txt is append-only: each line pairs an
engine version (the `k...EngineVersion` constant under src/, which
keys every result-cache entry) with a digest of the goldens and of
perfbench/pins.txt. `update` refuses to rewrite a version's line, so
changed outputs cannot land without a version bump.

Every bench runs in a throwaway working directory, so files it writes
to its CWD (engine_speed's BENCH_engine.json and trace captures) never
land in the tree. A path in EXTRA_ARG (--cache-dir=DIR,
--benchmark=source://trace/FILE) must be absolute: a relative one
would resolve inside that directory, so `check` rejects it.

Usage (the goldens resolve relative to the repo root, so run from
anywhere):

  update_goldens.py check BENCH_EXE [EXTRA_ARG...]
      Run one manifest bench with its manifest args plus EXTRA_ARG
      (e.g. --jobs=4) and diff its stdout (stderr is ignored)
      against its golden.
  update_goldens.py version
      Check that the committed goldens and pins digest to the value
      recorded for the current engine version.
  update_goldens.py update BIN_DIR
      Re-run every manifest bench from BIN_DIR, rewrite the goldens
      and append the current version's digest. Refuses, writing
      nothing, when the outputs changed but the version already has
      a line. Only for an intended model change; never to make a
      failure go away.

Exit 0 = ok, 1 = mismatch or refusal, 2 = usage error.
"""

import difflib
import hashlib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "bench" / "golden"
MANIFEST = GOLDEN_DIR / "manifest.txt"
VERSIONS = GOLDEN_DIR / "engine_versions.txt"
PINS = REPO / "perfbench" / "pins.txt"
KINDS = ("sweep", "serial")
# EXTRA_ARG prefixes whose value names a filesystem path.
PATH_FLAGS = ("--cache-dir=", "--benchmark=source://trace/")
VERSION_RE = re.compile(
    r'constexpr\s+const\s+char\s*\*\s*k\w*EngineVersion\s*=\s*"([^"]+)"')


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def read_manifest():
    """[(bench, kind, [args])] in manifest order."""
    entries = []
    for line in MANIFEST.read_text().splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) < 2 or fields[1] not in KINDS:
            fail(f"{MANIFEST}: bad line {line!r}: want <bench> "
                 f"<{'|'.join(KINDS)}> <args...>")
        entries.append((fields[0], fields[1], fields[2:]))
    return entries


def run_bench(exe, args):
    """The bench's stdout, run in a throwaway working directory; a
    non-zero exit is a failure of its own."""
    with tempfile.TemporaryDirectory(prefix="golden-") as cwd:
        proc = subprocess.run([str(Path(exe).resolve()), *args],
                              cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        fail(f"{exe} {' '.join(args)} exited {proc.returncode}:\n"
             + proc.stderr.decode(errors="replace")[-4000:])
    return proc.stdout


def engine_version():
    found = set()
    for header in (REPO / "src").rglob("*.hh"):
        found.update(VERSION_RE.findall(header.read_text()))
    if len(found) != 1:
        fail(f"expected one engine version constant under src/, "
             f"found {sorted(found)}")
    return found.pop()


def digest(outputs):
    """sha256 over the goldens in manifest order, then the pins."""
    h = hashlib.sha256()
    for name, data in [*outputs, ("perfbench/pins.txt", PINS.read_bytes())]:
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def committed_outputs():
    return [(bench, (GOLDEN_DIR / f"{bench}.txt").read_bytes())
            for bench, _, _ in read_manifest()]


def read_versions():
    """{version: digest}; a version listed twice is an error."""
    table = {}
    for line in VERSIONS.read_text().splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2 or fields[0] in table:
            fail(f"{VERSIONS}: bad or repeated line {line!r}")
        table[fields[0]] = fields[1]
    return table


def check(exe, extra):
    exe = Path(exe)
    entries = {bench: args for bench, _, args in read_manifest()}
    if exe.name not in entries:
        fail(f"{exe.name} is not in {MANIFEST}")
    args = entries[exe.name] + extra
    actual = run_bench(exe, args)
    golden_path = GOLDEN_DIR / f"{exe.name}.txt"
    golden = golden_path.read_bytes()
    if actual == golden:
        print(f"{exe.name} {' '.join(args)}: stdout matches "
              f"{golden_path.relative_to(REPO)}")
        return 0
    diff = difflib.unified_diff(
        golden.decode(errors="replace").splitlines(keepends=True),
        actual.decode(errors="replace").splitlines(keepends=True),
        str(golden_path.relative_to(REPO)), "stdout")
    sys.stdout.writelines(list(diff)[:200])
    print(f"\n{exe.name} {' '.join(args)}: stdout differs from its "
          f"golden. If the model change is intended, bump the engine "
          f"version and run tools/update_goldens.py update BIN_DIR.")
    return 1


def version():
    current = engine_version()
    recorded = read_versions().get(current)
    actual = digest(committed_outputs())
    if recorded is None:
        fail(f"{VERSIONS.relative_to(REPO)} has no line for {current}; "
             f"run tools/update_goldens.py update BIN_DIR")
    if recorded != actual:
        fail(f"{VERSIONS.relative_to(REPO)} records {recorded} for "
             f"{current}, but the goldens and perfbench/pins.txt digest "
             f"to {actual}: a measured quantity changed without an "
             f"engine version bump")
    print(f"{current}: goldens and pins digest to the recorded {actual}")
    return 0


def update(bin_dir):
    outputs = [(bench, run_bench(Path(bin_dir) / bench, args))
               for bench, _, args in read_manifest()]
    current = engine_version()
    recorded = read_versions().get(current)
    new = digest(outputs)
    if recorded is not None and recorded != new:
        fail(f"refusing to rewrite the {current} line of "
             f"{VERSIONS.relative_to(REPO)}: the outputs changed "
             f"({recorded} -> {new}). Bump the engine version, then "
             f"re-run. Nothing was written.")
    for bench, data in outputs:
        (GOLDEN_DIR / f"{bench}.txt").write_bytes(data)
    if recorded is None:
        with VERSIONS.open("a") as table:
            table.write(f"{current} {new}\n")
        print(f"goldens rewritten; appended {current} {new}")
    else:
        print(f"goldens unchanged for {current}")
    return 0


def relative_paths(extra):
    """The EXTRA_ARGs whose path value is relative."""
    return [arg for arg in extra for flag in PATH_FLAGS
            if arg.startswith(flag)
            and not Path(arg[len(flag):]).is_absolute()]


def main(argv):
    if len(argv) >= 3 and argv[1] == "check":
        relative = relative_paths(argv[3:])
        if relative:
            print(f"check: {' '.join(relative)}: the bench runs in a "
                  f"throwaway working directory, so a path must be "
                  f"absolute", file=sys.stderr)
            return 2
        return check(argv[2], argv[3:])
    if len(argv) == 2 and argv[1] == "version":
        return version()
    if len(argv) == 3 and argv[1] == "update":
        return update(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
