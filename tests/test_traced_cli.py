"""The benchmark's tracer (perfbench/traced_cli.py) must keep working.

It patches spans onto names in linalg and modsym, and counts cache hits
and misses on CharpolyCache.fetch_or_compute, from outside the package;
a rename there, or a charpoly path around the store, would otherwise
break or zero traced benchmark runs without failing any test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# slopes reads each T_p polynomial twice (tp_slopes, then up_assembly), so
# even an in-memory store sees both misses and hits.
ARGS = ["slopes", "--p", "2", "--N", "11", "--k-max", "4", "--cache", ""]


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


def test_traced_cli_matches_plain_cli_and_records_linalg_spans(tmp_path):
    stats_path = tmp_path / "stats.json"
    plain = _run(["-m", "heckeslopes.cli", *ARGS])
    traced = _run([str(ROOT / "perfbench" / "traced_cli.py"), str(stats_path), *ARGS])
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    stats = json.loads(stats_path.read_text())
    for layer in ("linalg.kernel", "linalg.span_solve", "modsym.hecke"):
        assert stats["seconds"][layer][2] > 0, layer  # [total s, self s, calls]
    for counter in ("cache.hits", "cache.misses", "modsym.hecke_matrices"):
        assert stats["counts"][counter] > 0, counter
