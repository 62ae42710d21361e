"""Compare the ptscatter command line of two source trees, byte for byte.

    python3 tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``ptscatter`` package (for
example ``src`` of two checkouts).  Each command of COMMANDS runs as
``python3 -m ptscatter ...`` in a fresh interpreter, once with each tree on
``PYTHONPATH``; the tool prints one line per command and then every command
whose stdout, stderr or exit code differs, and exits 1 if any does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

POLE_REPLAY = ["--beta0", "-0.24876168095150114", "--beta1", "-0.0012823971079812813",
               "--chi", "-1.4354489678740707", "--xi", "2.929887110558113"]
PARAMS = ["--beta0", "0.2", "--beta1", "0.1"]

COMMANDS = [
    ["verify", "--random", "200", "--seed", "42"],
    *(["verify", "--random", "1", "--seed", str(7919 * k)] for k in range(1, 21)),
    ["verify", *POLE_REPLAY],                                       # exit 5
    ["verify", "--beta0", "0.25", "--beta1", "0.2", "--chi", "6"],  # exit 5
    ["verify", *PARAMS, "--chi", "700"],
    ["verify", "--beta0", "0.25", "--beta1", "0.25"],                # pole at z = 0
    ["verify", "--beta0", "-0.26", "--beta1", "0.01"],               # pole at z = -3i
    ["verify", "--beta0", "-0.25", "--beta1", "0"],                  # pole at z = -3i
    ["verify", "--beta0", "0.75", "--beta1", "0"],
    ["verify", "--beta0", "0.3", "--beta1", "0"],                   # contraction_bound
    ["sweep", *PARAMS],
    ["sweep", *PARAMS, "--chi", "1.5", "--xi", "0.7", "--steps", "16"],
    ["sweep", "--beta0", "0.25", "--beta1", "0", "--steps", "9"],
    ["sweep", *POLE_REPLAY, "--steps", "16"],
    ["sweep", "--beta0", "0.6", "--beta1", "-0.3", "--chi", "-2", "--xi", "4",
     "--re-min", "-1", "--re-max", "2", "--im-min", "-2", "--im-max", "0", "--steps", "5"],
    ["sweep", *PARAMS, "--chi", "0.5", "--xi", "0.3", "--steps", "16", "--format", "json"],
    ["sweep", *PARAMS, "--chi", "400", "--steps", "2"],
    ["sweep", *PARAMS, "--chi", "400", "--steps", "2", "--format", "json"],  # exit 4
    ["sweep", *PARAMS, "--chi", "710.4", "--xi", "4.71238898038469", "--steps", "2"],  # exit 2
    ["sweep", "--beta0", "-0.25", "--beta1", "0", "--steps", "9", "--format", "json"],  # pole -3i
    ["sweep", *PARAMS, "--re-min=-1e308", "--re-max=1e308"],       # exit 2
    ["sweep", *PARAMS, "--re-min=-0.0", "--re-max=-0.0", "--im-min=-1", "--im-max=-0.0",
     "--steps", "3"],                                   # z_re holds 0 and -0
    ["sweep", *PARAMS, "--re-min=-0.0", "--re-max=0.0", "--steps", "2"],
    ["sweep", *PARAMS, "--chi", "-1.2", "--xi", "2.5", "--steps", "64"],
    ["verify", "--beta0", "0", "--beta1", "1e308", "--chi", "2"],     # exit 2, T overflows
    ["classify", "--beta0", "0.25", "--beta1", "0.2", "--chi", "1"],
    ["classify", "--beta0", "0", "--beta1", "1e308", "--chi", "2"],   # finite eigenvalues
    ["classify", "--beta0", "1.3165760051555746", "--beta1", "-0.020132417011519577",
     "--chi", "709.8642557525455", "--xi", "5.305185825219249"],     # exit 2
    ["decompose", "[[1,0],[0,-1]]"],
    ["decompose", "[[1e308+1e308j,0],[0,-1e308-1e308j]]"],
    ["decompose", "[[1e200,0],[0,1e200]]"],                           # exit 2
    ["smatrix", "--beta0", "0.25", "--beta1", "0.1", "--chi", "1", "--z-re", "1", "--z-im", "-1"],
    ["smatrix", "--beta0", "0.25", "--beta1", "0.1", "--chi", "1", "--z-re", "1", "--z-im", "-1",
     "--format", "json"],
    ["smatrix", "--beta0", "-0.25", "--beta1", "0", "--z-im", "-3", "--format", "json"],  # exit 4
]


def run(src: Path, argv: list) -> tuple[bytes, bytes, int]:
    """(stdout, stderr, exit code) of ``python3 -m ptscatter argv`` with src
    first on PYTHONPATH, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ptscatter", *argv], env=env,
                          capture_output=True, timeout=600)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in args)
    differing = []
    for command in COMMANDS:
        a, b = run(old, command), run(new, command)
        same = [name for name, x, y in zip(("stdout", "stderr", "exit"), a, b) if x == y]
        status = "same" if len(same) == 3 else "DIFFERS"
        print(f"{status:8} exit {a[2]}/{b[2]}  ptscatter {' '.join(command)}")
        if len(same) < 3:
            differing.append((command, a, b))
    for command, a, b in differing:
        print(f"\n== ptscatter {' '.join(command)}")
        for name, x, y in zip(("stdout", "stderr", "exit"), a, b):
            if x != y:
                print(f"-- {name}: old {x[-400:] if isinstance(x, bytes) else x!r}\n"
                      f"   {' ' * len(name)}  new {y[-400:] if isinstance(y, bytes) else y!r}")
    print(f"\n{len(COMMANDS) - len(differing)} of {len(COMMANDS)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
