"""Spans around calls into the program's layers, for the traced run.

The tracer wraps public functions where the calling module looks them
up (``meadows.decide.split_inverse`` is what ``decide_iamd`` calls, for
instance) and in the benchmark's own ``api`` namespace; the program's
files stay untouched.  Recursive functions (``eval_total``,
``substitute``, ``div_to_inv``, ``inv_to_div``) are wrapped only at
their callers, never in their own module, so one call is one span.

Every span knows its parent.  When a span closes, its duration and self
time (duration minus the time its child spans cover) are added to a
table keyed by (name, parent name); spans themselves are not kept, since
``check_model`` alone opens tens of thousands per round.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

# (module, attribute) -> span name.  Each entry is a lookup the program or the
# benchmark makes; see the module docstring for what is left out and why.
PATCHES = {
    ("syntax", "parse"): "parse",
    ("cli", "parse"): "parse",
    ("syntax", "render"): "render",
    ("cli", "render"): "render",
    ("normalize", "conforms"): "conforms",
    ("decide", "conforms"): "conforms",
    ("partial", "conforms"): "conforms",
    ("cli", "conforms"): "conforms",
    ("terms", "free_vars"): "free_vars",
    ("normalize", "free_vars"): "free_vars",
    ("decide", "free_vars"): "free_vars",
    ("theories", "free_vars"): "free_vars",
    ("decide", "substitute"): "substitute",
    ("decide", "split_inverse"): "split_inverse",
    ("normalize", "split_inverse"): "split_inverse",
    ("cli", "split_inverse"): "split_inverse",
    ("decide", "zero_elim"): "zero_elim",
    ("normalize", "zero_elim"): "zero_elim",
    ("cli", "zero_elim"): "zero_elim",
    ("decide", "decide_iamd"): "decide_iamd",
    ("cli", "decide_iamd"): "decide_iamd",
    ("decide", "decide_iamdz_gil"): "gil",
    ("cli", "decide_iamdz_gil"): "gil",
    ("decide", "eval_total"): "eval_total",
    ("theories", "eval_total"): "eval_total",
    ("cli", "eval_total"): "eval_total",
    ("cli", "eval_punched"): "eval_punched",
    ("cli", "classify_def"): "classify_def",
    ("decide", "div_to_inv"): "div_to_inv",
    ("cli", "div_to_inv"): "div_to_inv",
    ("cli", "inv_to_div"): "inv_to_div",
}

# api attribute -> span name (the benchmark's own calls).
API_SPANS = {
    "parse": "parse",
    "render": "render",
    "eval_total": "eval_total",
    "eval_punched": "eval_punched",
    "classify_def": "classify_def",
    "div_to_inv": "div_to_inv",
    "inv_to_div": "inv_to_div",
    "split_inverse": "split_inverse",
    "zero_elim": "zero_elim",
    "decide_iamd": "decide_iamd",
    "decide_iamdz_gil": "gil",
    "check_model": "check_model",
    "cli_main": "cli_main",
}

TERM_CLASSES = ("Zero", "One", "Var", "Add", "Mul", "Neg", "Inv", "Div")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child time, child names]
        self.table = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.nodes_built = 0
        self.peak_monomials = 0
        self.false_expanded = 0
        self.gil_open = 0
        self.gil_pairs: list[set] = []
        self.gil_iamd_calls = 0
        self.gil_unique = 0
        self._undo: list = []

    def span(self, name, fn, on_exit=None):
        stack, table = self.stack, self.table

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, set()]
            stack.append(frame)
            if on_exit is not None:
                self._enter(name, args)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                    parent[2].add(name)
                row = table[(name, parent[0] if parent else None)]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                if on_exit is not None:
                    on_exit(frame, result)
        return wrapper

    # --- hooks for the counters that need more than a span ---------------------

    def _enter(self, name, args):
        if name == "gil":
            self.gil_open += 1
            self.gil_pairs.append(set())
        elif name == "decide_iamd" and self.gil_open:
            self.gil_iamd_calls += 1
            self.gil_pairs[-1].add((args[0], args[1]))

    def _mul_exit(self, frame, result):
        if result is not None:
            self.peak_monomials = max(self.peak_monomials, len(result))

    def _iamd_exit(self, frame, result):
        if result is not None and not result.verdict and "split_inverse" in frame[2]:
            self.false_expanded += 1

    def _gil_exit(self, frame, result):
        self.gil_open -= 1
        self.gil_unique += len(self.gil_pairs.pop())

    # --- installation ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, m: SimpleNamespace, api: SimpleNamespace) -> None:
        hooks = {"decide_iamd": self._iamd_exit, "gil": self._gil_exit}
        for (module, attr), name in PATCHES.items():
            owner = getattr(m, module)
            self._set(owner, attr, self.span(name, getattr(owner, attr), hooks.get(name)))
        for attr, name in API_SPANS.items():
            self._set(api, attr, self.span(name, getattr(api, attr), hooks.get(name)))
        pospoly = m.normalize.PosPoly
        self._set(pospoly, "mul", self.span("mul", pospoly.mul, self._mul_exit))
        for cls_name in TERM_CLASSES:
            cls = getattr(m.terms, cls_name)
            self._set(cls, "__init__", self._counting_init(cls.__init__))

    def _counting_init(self, init):
        tracer = self

        def counted(self, *args, **kwargs):
            tracer.nodes_built += 1
            init(self, *args, **kwargs)
        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results -------------------------------------------------------------------

    def total(self, name, parent=..., column=1):
        """Column 0 (calls), 1 (total s) or 2 (self s) of ``name``, under ``parent`` or any."""
        return sum(row[column] for (n, p), row in self.table.items()
                   if n == name and (parent is ... or p == parent))

    def metrics(self, rounds: int, overhead_s: float, import_s: float) -> dict:
        """Per-layer metrics, each per traced round except the peak and the ratio."""
        per = 1.0 / rounds

        def t(name, parent=..., column=1):
            return self.total(name, parent, column) * per

        def n(name, parent=...):
            return self.total(name, parent, 0) * per

        mul_all, mul_calls = t("mul"), n("mul")
        cross, cross_calls = t("mul", "decide_iamd"), n("mul", "decide_iamd")
        values = {
            "syntax.parse_s": (t("parse"), "s"),
            "syntax.parse_calls": (n("parse"), "count"),
            "syntax.render_s": (t("render"), "s"),
            "terms.nodes_built": (self.nodes_built * per, "count"),
            "terms.conforms_s": (t("conforms"), "s"),
            "terms.free_vars_s": (t("free_vars"), "s"),
            "terms.substitute_s": (t("substitute"), "s"),
            "terms.substitute_calls": (n("substitute"), "count"),
            "normalize.split_inverse_s": (t("split_inverse"), "s"),
            "normalize.split_inverse_calls": (n("split_inverse"), "count"),
            "normalize.pospoly_mul_s": (mul_all - cross, "s"),
            "normalize.pospoly_mul_calls": (mul_calls - cross_calls, "count"),
            "normalize.peak_monomials": (self.peak_monomials, "count"),
            "normalize.zero_elim_s": (t("zero_elim"), "s"),
            "normalize.zero_elim_calls": (n("zero_elim"), "count"),
            "decide.iamd_calls": (n("decide_iamd"), "count"),
            "decide.iamd_self_s": (t("decide_iamd", column=2), "s"),
            "decide.cross_product_s": (cross, "s"),
            "decide.witness_s": (t("eval_total", "decide_iamd"), "s"),
            "decide.witness_evals": (n("eval_total", "decide_iamd"), "count"),
            "decide.false_expanded": (self.false_expanded * per, "count"),
            "decide.gil_self_s": (t("gil", column=2), "s"),
            "decide.gil_iamd_calls": (self.gil_iamd_calls * per, "count"),
            "decide.gil_unique_ratio": (self.gil_unique / self.gil_iamd_calls
                                        if self.gil_iamd_calls else 1.0, "ratio"),
            "evaluate.eval_total_s": (t("eval_total"), "s"),
            "evaluate.eval_total_calls": (n("eval_total"), "count"),
            "partial.eval_punched_s": (t("eval_punched"), "s"),
            "partial.classify_def_s": (t("classify_def"), "s"),
            "translate.div_to_inv_s": (t("div_to_inv"), "s"),
            "translate.inv_to_div_s": (t("inv_to_div"), "s"),
            "theories.check_model_s": (t("check_model"), "s"),
            "theories.eval_calls": (n("eval_total", "check_model"), "count"),
            "cli.import_s": (import_s, "s"),
            "cli.main_s": (t("cli_main"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def report(self, rounds: int) -> str:
        """The span table, one line per (name, parent), for humans."""
        lines = [f"{'span':<16}{'parent':<16}{'calls/round':>14}{'total s':>12}{'self s':>12}"]
        for (name, parent), (calls, total, own) in sorted(self.table.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{name:<16}{parent or '-':<16}{calls / rounds:>14.1f}"
                         f"{total / rounds:>12.4f}{own / rounds:>12.4f}")
        return "\n".join(lines)


def cold_import_s(src_env: dict) -> float:
    """Seconds a fresh interpreter spends importing meadows.cli."""
    code = "import time; t = time.perf_counter(); import meadows.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip())
