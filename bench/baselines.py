"""Re-measure ROADMAP's single-call baselines on this machine.

    python3 bench/baselines.py

Prints, one per line: split_inverse and decide_iamd (true and false) on
the ROADMAP product, decide_iamdz_gil on sum v*v^-1 = sum v^-1*v for
n = 6, 7, 8, and the median cold start of ``python -m meadows.cli`` and
of importing ``meadows.cli`` in a new interpreter.  Each library figure
is one call; n = 8 alone takes about half a minute.
"""

from __future__ import annotations

import compileall
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main() -> int:
    compileall.compile_dir(str(SRC / "meadows"), quiet=1)
    sys.path.insert(0, str(SRC))
    from meadows import decide_iamd, decide_iamdz_gil, parse_term, split_inverse

    import ops
    import tracing

    print(f"python {platform.python_version()} on {platform.machine()}")
    product = parse_term("(x + y + z + w + 1)^12 * (x*y + z*w + x + 1)^8")
    other = "(x*y + z*w + x + 1)^8 * (x + y + z + w + 1)^12"
    seconds, fraction = timed(split_inverse, product)
    print(f"split_inverse ROADMAP product: {seconds:.3f} s, {len(fraction.numerator)} monomials")
    for label, rhs in (("commuted", other), ("commuted + 1", f"{other} + 1")):
        seconds, decision = timed(decide_iamd, product, parse_term(rhs))
        print(f"decide_iamd ROADMAP product vs {label}: {seconds:.3f} s, verdict {decision.verdict}")
    for n in (6, 7, 8):
        names = [f"v{i}" for i in range(n)]
        lhs = parse_term(" + ".join(f"{v} * {v}^-1" for v in names))
        rhs = parse_term(" + ".join(f"{v}^-1 * {v}" for v in names))
        seconds, decision = timed(decide_iamdz_gil, lhs, rhs)
        print(f"decide_iamdz_gil n={n}: {seconds:.3f} s, verdict {decision.verdict}")
    env = ops.cold_env(str(SRC))
    starts = []
    for _ in range(15):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "meadows.cli", "eval", "1 + 1"], env=env,
                       capture_output=True, check=True, timeout=120)
        starts.append(time.perf_counter() - start)
    print(f"cli cold start (eval 1 + 1), median of 15: {statistics.median(starts) * 1e3:.1f} ms")
    imports = [tracing.cold_import_s(env) for _ in range(15)]
    print(f"import meadows.cli in a new interpreter, median of 15: {statistics.median(imports) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
