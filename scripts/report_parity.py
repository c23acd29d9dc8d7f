"""Byte-for-byte comparison of fixed-seed reports from two source trees.

    python3 scripts/report_parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that each contain the ``finslercheck``
package (for a checkout, its ``src``).  Each tree runs the same fixed list of
fixed-seed invocations in one fresh interpreter, writing every report to a
file; the reports, exit codes and stderr texts are then compared, the reports
with ``cmp`` semantics.  A report that neither tree wrote (a run that exits 3
before writing) compares equal.  Exits 0 when every invocation matches, 1
after naming every invocation that differs, and 2 when a tree cannot be run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

PROFILES = {
    "wk-exp.json": {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
    "hermitian-exp.json": {"family": "hermitian", "f": {"kind": "exp", "c": 1.0, "a": 1.0}},
    "randers.json": {"family": "randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
                     "g": {"kind": "linear", "c": 0.5}, "h": {"kind": "constant", "c": 0.5}},
    "wk-exp-h1.1.json": {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
                         "h_scale": 1.1},
    # f = e^{-3t}: valid for t < 1/3
    "hermitian-decay.json": {"family": "hermitian", "f": {"kind": "exp", "c": 1.0, "a": -3.0}},
    # f = 1e-300 e^{70.9 t}: a t passes 709 inside the stencils near t = 10
    "hermitian-exp-edge.json": {"family": "hermitian", "f": {"kind": "exp", "c": 1e-300,
                                                            "a": 70.9}},
    # h just off the wk value: the wk formula applies at some samples and not at others
    "wk-exp-h1.0000001.json": {"family": "wk-randers", "f": {"kind": "exp", "c": 1.0, "a": 1.0},
                               "h_scale": 1.0000001},
    # f = t^1.5: pow at fractional exponents in f, g, h and their derivatives
    "wk-power1.5.json": {"family": "wk-randers", "f": {"kind": "power", "c": 1.0, "p": 1.5}},
    # f = t^300: phi^3 is past float range for t in [9, 11]
    "hermitian-power300.json": {"family": "hermitian", "f": {"kind": "power", "c": 1.0,
                                                            "p": 300.0}},
}

# (name, argv without --out, report format); every seed is fixed
INVOCATIONS = (
    ("verify-wk-exp-n2", ("verify", "--profile", "wk-exp.json", "--n", "2",
                          "--samples", "20", "--seed", "11"), "json"),
    ("verify-wk-exp-n3", ("verify", "--profile", "wk-exp.json", "--n", "3",
                          "--samples", "20", "--seed", "12"), "json"),
    ("verify-wk-exp-n4", ("verify", "--profile", "wk-exp.json", "--n", "4",
                          "--samples", "20", "--seed", "13"), "json"),
    ("verify-wk-exp-n2-csv", ("verify", "--profile", "wk-exp.json", "--n", "2",
                              "--samples", "20", "--seed", "14"), "csv"),
    ("verify-k4-n3", ("verify", "--model", "k4", "--n", "3",
                      "--samples", "20", "--seed", "15"), "json"),
    # one chunk of 130 samples (chunks hold 2048 // (n + 4) samples, 256 at n = 4)
    ("verify-wk-exp-n4-130", ("verify", "--profile", "wk-exp.json", "--n", "4",
                              "--samples", "130", "--seed", "16"), "json"),
    # inside one chunk of 292 at n = 3, where a chunk of 128 once split it: pins
    # that a sample's bits do not depend on the size of its chunk
    ("verify-wk-exp-n3-129", ("verify", "--profile", "wk-exp.json", "--n", "3",
                              "--samples", "129", "--seed", "19"), "json"),
    # one past a chunk at n = 6: 204 samples and 1
    ("verify-wk-exp-n6-205", ("verify", "--profile", "wk-exp.json", "--n", "6",
                              "--samples", "205", "--seed", "23"), "json"),
    ("verify-wk-exp-n3-oracles", ("verify", "--profile", "wk-exp.json", "--n", "3",
                                  "--checks", "levi_oracle,nconn,unitary",
                                  "--samples", "20", "--seed", "17"), "json"),
    ("verify-hermitian-exp-n8", ("verify", "--profile", "hermitian-exp.json", "--n", "8",
                                 "--samples", "10", "--seed", "18"), "json"),
    ("curvature-k4", ("curvature", "--model", "k4", "--c", "0.5", "--n", "2",
                      "--samples", "40", "--seed", "21"), "json"),
    ("curvature-k0", ("curvature", "--model", "k0", "--c", "1.0", "--n", "3",
                      "--samples", "40", "--seed", "22"), "json"),
    ("curvature-km4", ("curvature", "--model", "km4", "--c", "2.0", "--n", "2",
                       "--samples", "40", "--seed", "23"), "json"),
    ("curvature-k4-n3-csv", ("curvature", "--model", "k4", "--n", "3"), "csv"),
    # one past a chunk at n = 2: 341 samples and 1
    ("curvature-k4-n2-342", ("curvature", "--model", "k4", "--n", "2",
                             "--samples", "342", "--seed", "21"), "json"),
    # records with and without kf_wk in one chunk
    ("curvature-wk-exp-h1.0000001", ("curvature", "--profile", "wk-exp-h1.0000001.json",
                                     "--n", "2", "--samples", "60", "--seed", "7"), "json"),
    # ... and with no kf_wk at any sample
    ("curvature-randers", ("curvature", "--profile", "randers.json", "--n", "2",
                           "--samples", "20", "--seed", "8"), "json"),
    # |z| up to 1e3 on the k = +4 model: the disc oracle's steps are relative to |z|
    ("curvature-k4-large-z", ("curvature", "--model", "k4", "--t-range", "1e5", "1e6",
                              "--samples", "30", "--seed", "1"), "json"),
    # within 1e-3 of the k = -4 ball's edge
    ("curvature-km4-near-edge", ("curvature", "--model", "km4", "--t-range", "0.999", "0.9999",
                                 "--samples", "30", "--seed", "1"), "json"),
    ("models", ("models", "--n", "2", "--samples", "20", "--seed", "31"), "json"),
    ("residual-wk-exp", ("residual", "--profile", "wk-exp.json", "--n", "3",
                         "--samples", "200", "--seed", "41"), "json"),
    ("residual-hermitian-exp", ("residual", "--profile", "hermitian-exp.json", "--n", "3",
                                "--samples", "200", "--seed", "42"), "json"),
    ("residual-randers", ("residual", "--profile", "randers.json", "--n", "3",
                          "--samples", "200", "--seed", "43"), "csv"),
    ("residual-wk-exp-h1.1", ("residual", "--profile", "wk-exp-h1.1.json", "--n", "3",
                              "--samples", "200", "--seed", "44"), "json"),
    # the verdict "not-weakly-kahler"
    ("classify-wk-exp-h1.1-csv", ("classify", "--profile", "wk-exp-h1.1.json", "--n", "3",
                                  "--samples", "20", "--seed", "9"), "csv"),
    # two chunks of the residual checks, 8192 samples and 1
    ("residual-wk-exp-8193", ("residual", "--profile", "wk-exp.json", "--n", "3",
                              "--samples", "8193", "--seed", "48"), "csv"),
    # G near 1e39, past the report kernel's fast range [1e-30, 1e30), beside exact zeros
    ("residual-hermitian-exp-far", ("residual", "--profile", "hermitian-exp.json", "--n", "3",
                                    "--t-range", "70", "90", "--samples", "50",
                                    "--seed", "7"), "csv"),
    # the profile rejects part of the window, and the sampler draws again
    ("residual-hermitian-decay", ("residual", "--profile", "hermitian-decay.json", "--n", "3",
                                  "--t-range", "0.2", "0.45", "--samples", "40",
                                  "--seed", "45"), "json"),
    # ... at n = 32, where most rows meet a normal off the ziggurat's fast path
    ("residual-hermitian-decay-n32", ("residual", "--profile", "hermitian-decay.json",
                                      "--n", "32", "--t-range", "0.2", "0.45",
                                      "--samples", "300", "--seed", "1"), "json"),
    # ... or nearly all of it: exit 3, EmptyAfterRejection
    ("residual-hermitian-decay-empty", ("residual", "--profile", "hermitian-decay.json",
                                        "--n", "3", "--t-range", "0.32", "0.6",
                                        "--samples", "40", "--seed", "46"), "json"),
    # t up to 1 - 1e-5 on the k = -4 ball, where the disc oracle's steps follow its bend
    ("curvature-km4-ball-edge", ("curvature", "--model", "km4", "--c", "1", "--n", "2",
                                 "--t-range", "0.9", "0.99999", "--samples", "50",
                                 "--seed", "3"), "json"),
    # stencil exps above 709, taken by libm entry by entry: exit 1 (nconn and
    # spray_compat fail, the step being coarse against e^{70.9 t}) ...
    ("verify-hermitian-exp-edge", ("verify", "--profile", "hermitian-exp-edge.json",
                                   "--t-range", "9.965", "9.97", "--n", "3",
                                   "--samples", "20", "--seed", "41"), "json"),
    # ... and past float range: exit 3, OverflowError replayed as a domain violation
    ("verify-hermitian-exp-overflow", ("verify", "--profile", "hermitian-exp-edge.json",
                                       "--t-range", "9.995", "10.0", "--n", "3",
                                       "--samples", "20", "--seed", "41"), "json"),
    ("verify-wk-power1.5-n3", ("verify", "--profile", "wk-power1.5.json", "--n", "3",
                               "--samples", "20", "--seed", "51"), "json"),
    # the k = -4 model's f and tail^(n - 2) of the determinant at n = 6
    ("verify-km4-n6", ("verify", "--model", "km4", "--n", "6",
                       "--samples", "20", "--seed", "52"), "json"),
    # pow past float range: exit 3, the OverflowError of ``**`` named with its check and sample
    ("verify-hermitian-power300-overflow", ("verify", "--profile", "hermitian-power300.json",
                                            "--t-range", "9", "11", "--n", "3",
                                            "--samples", "5", "--seed", "54"), "json"),
    # ... and at two seeds where another check or the metric G meets it first
    ("verify-hermitian-power300-seed5", ("verify", "--profile", "hermitian-power300.json",
                                         "--t-range", "9", "11", "--n", "3",
                                         "--samples", "5", "--seed", "5"), "json"),
    ("verify-hermitian-power300-seed53", ("verify", "--profile", "hermitian-power300.json",
                                          "--t-range", "9", "11", "--n", "3",
                                          "--samples", "5", "--seed", "53"), "json"),
    # a step whose stencil points round onto the base point
    ("verify-k4-fd-step-1e-300", ("verify", "--model", "k4", "--fd-step", "1e-300",
                                  "--samples", "5", "--seed", "55"), "json"),
)

# run inside the fresh interpreter: argv[1] is the source tree, argv[2] the
# work directory, stdin the invocation list; prints [exit code, stderr] by name as JSON
_RUNNER = """
import contextlib, io, json, os, sys
tree, work = sys.argv[1], sys.argv[2]
sys.path.insert(0, tree)
import finslercheck
from finslercheck import cli
if not os.path.realpath(finslercheck.__file__).startswith(os.path.realpath(tree)):
    sys.exit("finslercheck imported from " + finslercheck.__file__ + ", not from " + tree)
os.chdir(work)
runs = {}
for name, argv, fmt in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", fmt, "--out", name + "." + fmt])
    runs[name] = [code, err.getvalue()]
print(json.dumps(runs))
"""


def run_tree(tree: Path, work: Path) -> dict:
    """Run every invocation against ``tree`` in one fresh interpreter; [code, stderr] by name."""
    work.mkdir()
    for name, desc in PROFILES.items():
        (work / name).write_text(json.dumps(desc))
    todo = json.dumps([(name, list(argv), fmt) for name, argv, fmt in INVOCATIONS])
    done = subprocess.run([sys.executable, "-c", _RUNNER, str(tree), str(work)],
                          input=todo, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"report_parity: {tree} failed:\n{done.stderr.strip()}", file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _read(path: Path):
    """The report's bytes, or None where the run wrote none."""
    return path.read_bytes() if path.exists() else None


def _compare(name, old_run, new_run, old_bytes, new_bytes) -> bool:
    """Print how invocation ``name`` compares between the trees; True when it matches."""
    (old_code, old_err), (code, err) = old_run, new_run
    same = True
    if old_code != code:
        print(f"{name}: exit codes differ ({old_code} vs {code})")
        same = False
    if old_err != err:
        print(f"{name}: stderr differs:\n  {old_err!r}\n  {err!r}")
        same = False
    if old_bytes is None or new_bytes is None:
        if old_bytes is not new_bytes:
            print(f"{name}: only one tree wrote a report")
            return False
        if same:
            print(f"{name}: identical (no report, exit {code}, stderr {err.strip()!r})")
        return same
    if old_bytes != new_bytes:
        # cmp's report: the first differing byte, or EOF on the shorter file
        where = next((k for k, (a, b) in enumerate(zip(old_bytes, new_bytes)) if a != b),
                     min(len(old_bytes), len(new_bytes)))
        print(f"{name}: reports differ: byte {where + 1}")
        return False
    if same:
        print(f"{name}: identical ({len(new_bytes)} bytes, exit {code})")
    return same


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "finslercheck" / "__init__.py").is_file():
            print(f"report_parity: no finslercheck package in {tree}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = Path(tmp) / "old", Path(tmp) / "new"
        old_runs, new_runs = run_tree(trees[0], old_dir), run_tree(trees[1], new_dir)
        differ = [name for name, _, fmt in INVOCATIONS
                  if not _compare(name, old_runs[name], new_runs[name],
                                  *(_read(work / f"{name}.{fmt}") for work in (old_dir, new_dir)))]
    if differ:
        print(f"{len(differ)} of {len(INVOCATIONS)} invocations differ: {', '.join(differ)}")
        return 1
    print(f"all {len(INVOCATIONS)} invocations identical: reports, exit codes and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
