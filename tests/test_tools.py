"""tools/time_pairs.py runs the benchmark's own child and judges its checks."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "oracle = lower[0] >= -tol and upper[0] >= -tol"


def test_time_pairs_exits_1_on_a_tree_with_wrong_outputs(tmp_path):
    # a copy whose eigenvalue oracle answers the opposite of the closed form
    broken = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "ptscatter", broken / "ptscatter",
                    ignore=shutil.ignore_patterns("__pycache__"))
    extensions = broken / "ptscatter" / "extensions.py"
    text = extensions.read_text()
    assert text.count(ORACLE) == 1
    extensions.write_text(text.replace(ORACLE, f"oracle = not ({ORACLE[len('oracle = '):]})"))

    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "time_pairs.py"),
                           str(ROOT / "src"), str(broken), "--workload", "scan",
                           "--pairs", "1", "--calls", "1", "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    out = proc.stdout
    assert re.search(r"^old: \d+ items, 0 failed, 0 wrong$", out, re.M)
    wrong = re.search(r"^new: \d+ items, \d+ failed, (\d+) wrong$", out, re.M)
    assert wrong and int(wrong.group(1)) > 0
    for metric, unit in (("p90", "ms"), ("rss", "MB"), ("setup", "s")):
        assert re.search(rf"^{metric}: median gap -?[\d.]+ {unit}, new lower in \d of 1 pairs$",
                         out, re.M), metric
