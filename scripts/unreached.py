"""Lines of the package's function bodies that no benchmark or parity invocation executes.

    python3 scripts/unreached.py

Runs, in this process, every ``bench/workloads.py`` invocation of each
workload at seeds 1 and 2 and every ``scripts/report_parity.py`` invocation
through ``finslercheck.cli.main``, writing the reports into a temporary
directory, under a ``sys.settrace`` line collector that traces only frames of
the ``src/finslercheck`` modules.  The package is imported under the collector
too, so module-level code counts as run.  Prints each line of a function body
(a def, lambda or comprehension) that no invocation executed, as
``module.py:line: text``, and then their count.  Reads ``bench/`` and changes
nothing there.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslercheck"
SEEDS = (1, 2)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]
sys.dont_write_bytecode = True      # leave no cache under bench/

import report_parity  # noqa: E402
import workloads  # noqa: E402


def _function_lines(code, out: set):
    """Add the lines of every function body nested in ``code`` to ``out``."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                out.update(line for _, _, line in const.co_lines() if line is not None)
            _function_lines(const, out)


def _groups():
    """(directory name, profile files, (name, argv, format) of each invocation) to run."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            yield (f"{workload}-{seed}", workloads.profile_files(workload),
                   [(inv.name, list(inv.argv), inv.fmt)
                    for inv in workloads.invocations(workload, seed)])
    yield "parity", report_parity.PROFILES, [(name, list(argv), fmt)
                                             for name, argv, fmt in report_parity.INVOCATIONS]


def collect(work: Path) -> set:
    """The (file, line) pairs the package executes over every invocation."""
    prefix = str(PACKAGE) + os.sep
    seen = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    cwd = os.getcwd()
    sys.settrace(tracer)
    try:
        from finslercheck import cli
        for name, profiles, invocations in _groups():
            (work / name).mkdir()
            os.chdir(work / name)
            for file, desc in profiles.items():
                Path(file).write_text(json.dumps(desc), encoding="utf-8")
            for inv, argv, fmt in invocations:
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv + ["--format", fmt, "--out", f"{inv}.{fmt}"])
    finally:
        sys.settrace(None)
        os.chdir(cwd)
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        seen = collect(Path(tmp))
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = set()
        _function_lines(compile(text, str(path), "exec"), lines)
        source = text.splitlines()
        for line in sorted(lines):
            if (str(path), line) not in seen:
                print(f"{path.name}:{line}: {source[line - 1].strip()}")
                count += 1
    print(f"{count} function-body lines not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
