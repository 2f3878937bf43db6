"""Traced runs: spans and counts around simpca's public functions.

The benchmark wraps functions at their module attribute for the length of
one traced run and restores them afterwards, so ``src/`` is untouched and
untraced runs pay nothing. Calls inside simpca that go through a module
attribute or a module global (``core.svd`` from ``core.numerical_rank``,
``pca.fit_pca``...) reach the wrapper. ``selection`` binds ``r_squared``
by name at import, so ``selection.r_squared`` is wrapped separately from
``core.r_squared``.

Spans (name, start and end in ``perf_counter`` seconds, parent as the line
number of the parent span, run id) are kept in memory and written out as
JSON lines when the benchmark ends. A span's self time is its duration
minus its child spans. Hot inner calls are counted, not timed, so their
wrappers do not swamp the self times.
"""

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from simpca import cli, core, pca, report, rotation, selection, sparse

MODULES = {
    "cli": cli, "core": core, "pca": pca, "report": report,
    "rotation": rotation, "selection": selection, "sparse": sparse,
}

TIMED = (
    "cli.main",
    "report.ingest_csv", "report.build_report", "report.emit",
    "core.center_scale", "core.svd", "core.vif",
    "pca.fit_pca", "pca.deflate",
    "rotation.rotate",
    "selection.select_support",
    "sparse.run_simpca", "sparse.project_component", "sparse.cspca_component",
    "sparse.uspca_component",
)

# wrapped function -> count it feeds
COUNTED = {
    "rotation.cf_value": "rotation.cf_evals",
    "rotation._sweep": "rotation.sweeps",
    "selection.r_squared": "selection.r2_evals",
    "core.r_squared": "core.r2_calls",
    "core.solve_ls": "core.solve_ls_calls",
    "pca.vexp_of_component": "pca.vexp_calls",
}


def unit(name):
    """Unit of a metric, from its name."""
    for suffix, unit_ in (("_per_s", "1/s"), ("_s", "s"), ("_mib", "MiB"),
                          ("_gflop", "GFLOP"), ("_frac", "ratio"), ("_per_kept", "ratio"),
                          (".share", "ratio")):
        if name.endswith(suffix):
            return unit_
    return "count"


def svd_flop(shape):
    """Computed, not measured: flops of a thin SVD (U1, Sigma, V) of an m x n
    matrix by R-SVD, 6*m*n^2 + 20*n^3 with m >= n (Golub & Van Loan)."""
    m, n = max(shape), min(shape)
    return 6.0 * m * n * n + 20.0 * n**3


def wrapped_functions():
    """The functions a traced run wraps, by 'module.attribute'."""
    return {path: getattr(MODULES[path.split(".")[0]], path.split(".")[1])
            for path in (*TIMED, *COUNTED)}


def _install(functions):
    for path, fn in functions.items():
        module, attr = path.split(".")
        setattr(MODULES[module], attr, fn)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # run id -> Counter
        self._stack = []
        self._run = None
        self._originals = wrapped_functions()
        self._wrappers = {
            path: self._timed(path, fn) if path in TIMED else self._counted(COUNTED[path], fn)
            for path, fn in self._originals.items()
        }

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            span = {"name": name, "run": self._run,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._run][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result):
        counts = self.counts[self._run]
        if name == "core.svd":
            x = args[0]
            counts["core.svd_flop"] += svd_flop((x.values if hasattr(x, "values") else x).shape)
        elif name == "report.ingest_csv":
            counts["report.ingest_cells"] += result[1].size
        elif name == "rotation.rotate":
            counts["rotation.unconverged"] += not result.converged
        elif name == "selection.select_support":
            counts["selection.kept"] += result.cardinality

    @contextmanager
    def run(self, run_id):
        """Wrap every traced function for the length of one run."""
        self._run = run_id
        self.counts[run_id] = Counter()
        _install(self._wrappers)
        try:
            yield
        finally:
            _install(self._originals)
            self._run = None

    def layer_metrics(self, run_id, wall_s):
        """Per-layer metrics of one traced run of wall time ``wall_s``."""
        spans = [s for s in self.spans if s["run"] == run_id]
        self_s = defaultdict(float)
        calls = Counter()
        for s in spans:
            dur = s["end"] - s["start"]
            self_s[s["name"]] += dur
            calls[s["name"]] += 1
            if s["parent"] is not None:
                self_s[self.spans[s["parent"]]["name"]] -= dur
        c = self.counts[run_id]
        ingest_s = self_s["report.ingest_csv"]
        metrics = {
            "report.ingest_s": ingest_s,
            "report.ingest_cells_per_s": c["report.ingest_cells"] / ingest_s if ingest_s else 0.0,
            "report.build_s": self_s["report.build_report"],
            "report.emit_s": self_s["report.emit"],
            "core.center_scale_s": self_s["core.center_scale"],
            "core.svd_s": self_s["core.svd"],
            "core.svd_calls": calls["core.svd"],
            "core.svd_gflop": c["core.svd_flop"] / 1e9,
            "core.vif_s": self_s["core.vif"],
            "core.r2_calls": c["core.r2_calls"],
            "core.solve_ls_calls": c["core.solve_ls_calls"],
            "pca.fit_pca_s": self_s["pca.fit_pca"],
            "pca.deflate_s": self_s["pca.deflate"],
            "pca.deflate_calls": calls["pca.deflate"],
            "pca.vexp_calls": c["pca.vexp_calls"],
            "rotation.rotate_s": self_s["rotation.rotate"],
            "rotation.rotate_calls": calls["rotation.rotate"],
            "rotation.sweeps": c["rotation.sweeps"],
            "rotation.unconverged": c["rotation.unconverged"],
            "rotation.cf_evals": c["rotation.cf_evals"],
            "selection.select_s": self_s["selection.select_support"],
            "selection.r2_evals": c["selection.r2_evals"],
            "selection.kept": c["selection.kept"],
            "selection.r2_evals_per_kept":
                c["selection.r2_evals"] / c["selection.kept"] if c["selection.kept"] else 0.0,
            "sparse.sparsify_s": sum(self_s[f"sparse.{m}_component"]
                                     for m in ("project", "cspca", "uspca")),
            "sparse.run_simpca_self_s": self_s["sparse.run_simpca"],
            "cli.main_self_s": self_s["cli.main"],
        }
        for layer in MODULES:
            layer_s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            metrics[f"{layer}.share"] = layer_s / wall_s
        return metrics

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
