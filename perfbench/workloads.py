"""The benchmark's three workloads: seeded inputs, one run, and the output check.

Each workload stresses a different module of the pipeline (see README.md in
this directory for why each was chosen and the baseline numbers). The seed
only drives the input generator; simpca sees nothing but the generated
matrix. Library calls go through module attributes (``sparse.run_simpca``,
not ``from simpca import run_simpca``) so that the traced run, which wraps
those attributes, sees them.
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from simpca import cli, core, pca, report, rotation, selection, sparse

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Fingerprint floats (R^2, vexp, contributions, VIFs) must agree to this
# relative tolerance; everything else (supports, trace steps) exactly.
RTOL = 1e-9
ATOL = 1e-12
# max|Q'T| / (||Q|| ||T||) after deflating X against the accepted scores.
DEFLATION_TOL = 1e-10


def factor_matrix(n, p, k, seed):
    """n x p observations of a k-factor model, columns at unit variance.

    Variable j loads on factor j mod k with |loading| drawn from [0.5, 0.9]
    and a random sign, plus N(0, 0.5^2) noise. Values are rounded to six
    decimals, so a CSV written with '%.6f' reads back bit for bit.
    """
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, k))
    loadings = np.zeros((p, k))
    loadings[np.arange(p), np.arange(p) % k] = rng.uniform(0.5, 0.9, p) * rng.choice(
        [-1.0, 1.0], p
    )
    x = factors @ loadings.T + 0.5 * rng.standard_normal((n, p))
    x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    return np.round(x, 6)


def write_csv(path, values):
    header = ",".join(f"v{j + 1}" for j in range(values.shape[1]))
    row = ",".join(["%.6f"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row % tuple(r) for r in values.tolist())


def _close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare(ref, got, where="fingerprint"):
    """First difference between two JSON-like fingerprints, or None."""
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
            return None if _close(float(ref), float(got)) else f"{where}: {ref!r} != {got!r}"
        return f"{where}: {ref!r} != {got!r}"
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{where}: keys {sorted(ref)} != {sorted(got)}"
        for key in ref:
            diff = compare(ref[key], got[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{where}: length {len(ref)} != {len(got)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, f"{where}[{i}]")
            if diff:
                return diff
        return None
    return None if ref == got else f"{where}: {ref!r} != {got!r}"


def deflation_residual(values, scores):
    """max|Q'T| / (||Q|| ||T||) with Q = pca.deflate(X, T)."""
    q = pca.deflate(values, scores)
    denom = np.linalg.norm(q) * np.linalg.norm(scores)
    return float(np.max(np.abs(q.T @ scores)) / denom) if denom > 0 else 0.0


class Workload:
    """One workload: ``prepare`` makes the inputs from the seed, ``run`` is
    one timed run, ``fingerprint`` and ``invariants`` check its output."""

    name = None

    def __init__(self, small=False):
        self.small = small

    def prepare(self, seed, csv_path, write=True):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def fingerprint(self, inputs, output):
        raise NotImplementedError

    def invariants(self, inputs, output):
        raise NotImplementedError

    def reference_path(self, seed):
        return REFERENCE_DIR / f"{self.name}-seed{seed}.json"

    def load_reference(self, seed):
        """The stored fingerprint for this seed, or None (small shapes never
        have one)."""
        path = self.reference_path(seed)
        if self.small or not path.is_file():
            return None
        return json.loads(path.read_text())["fingerprint"]

    def check(self, inputs, output, reference):
        """List of problems with one run's output; empty when correct."""
        problems = self.invariants(inputs, output)
        if reference is not None:
            diff = compare(reference, self.fingerprint(inputs, output))
            if diff:
                problems.append(f"differs from the stored reference: {diff}")
        return problems


class CliTall(Workload):
    """3000 x 200, k=10, through ``cli.main`` with threshold selection."""

    name = "cli-tall"

    def prepare(self, seed, csv_path, write=True):
        n, p, k = (400, 40, 5) if self.small else (3000, 200, 10)
        raw = factor_matrix(n, p, k, seed)
        if write:
            write_csv(csv_path, raw)
        out_path = Path(csv_path).with_suffix(".report.json")
        argv = [
            "simpca", "--input", str(csv_path), "--scale", "unit-variance",
            "--nr", "10", "--nd", "3", "--select", "threshold", "--norm", "inf",
            "--threshold", "0.5", "--kaiser", "--format", "json",
            "--out", str(out_path),
        ]
        return {"raw": raw, "argv": argv, "out": out_path}

    def run(self, inputs):
        inputs["out"].unlink(missing_ok=True)
        code = cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"simpca exited with {code}")
        return inputs["out"].read_bytes()

    def fingerprint(self, inputs, output):
        fp = json.loads(json.dumps(asdict(report.report_from_json(output))))
        del fp["config"]["input"]
        return fp

    def invariants(self, inputs, output):
        problems = []
        output = report.report_from_json(output)
        if not output.components:
            return ["report has no components"]
        if output.components[-1].cvexp_pct > 100.0 * (1.0 + 1e-12):
            problems.append(f"cumulative vexp {output.components[-1].cvexp_pct}% > 100%")
        x = core.center_scale(inputs["raw"], "unit-variance")
        column = {name: j for j, name in enumerate(output.column_names)}
        scores = np.column_stack([
            x.values[:, [column[v[0]] for v in comp.variables]]
            @ np.array([v[1] for v in comp.variables])
            for comp in output.components
        ])
        resid = deflation_residual(x.values, scores)
        if not resid <= DEFLATION_TOL:
            problems.append(f"deflation residual {resid:.3g} > {DEFLATION_TOL}")
        return problems


class Pipelines(Workload):
    """Library workloads: several ``run_simpca`` pipelines on one matrix."""

    shape = small_shape = None

    def configs(self):
        raise NotImplementedError

    def prepare(self, seed, csv_path, write=True):
        return {"raw": factor_matrix(*(self.small_shape if self.small else self.shape), seed)}

    def run(self, inputs):
        x = core.center_scale(inputs["raw"], "unit-variance")
        return [self.run_one(x, config) for config in self.configs()]

    def run_one(self, x, config):
        return sparse.run_simpca(x, config)

    def fingerprint(self, inputs, output):
        return [
            [
                {
                    "support": list(c.support.indices),
                    "trace": [[op, i] for op, i, _ in c.support.trace],
                    "trace_r2": [r2 for _, _, r2 in c.support.trace],
                    "extra_vexp": c.extra_vexp,
                }
                for c in result.components
            ]
            for result in output
        ]

    def invariants(self, inputs, output):
        problems = []
        x = core.center_scale(inputs["raw"], "unit-variance")
        for k, result in enumerate(output):
            cum = math.fsum(c.extra_vexp for c in result.components)
            if cum > result.total_variance * (1.0 + 1e-12):
                problems.append(f"pipeline {k}: cumulative vexp {cum} > {result.total_variance}")
            scores = np.column_stack([c.scores for c in result.components])
            resid = deflation_residual(x.values, scores)
            if not resid <= DEFLATION_TOL:
                problems.append(f"pipeline {k}: deflation residual {resid:.3g} > {DEFLATION_TOL}")
        return problems


class SelectMix(Pipelines):
    """200 x 40, k=8: forward, backward and stepwise selection, each with its
    own sparsifier, then the JSON report."""

    name = "select-mix"
    shape, small_shape = (200, 40, 8), (120, 16, 4)
    # Forward and stepwise stop at this many variables (before reaching
    # alpha on every seed tried), and the rotation runs a fixed number of
    # sweeps, so that the work does not depend on the seed.
    cap = 8
    sweeps = 3

    def configs(self):
        nr, nd = (4, 2) if self.small else (8, 3)
        return [
            sparse.SimpcaPipelineConfig(
                nd=nd, nr=nr, method=method, rotation_tol=0.0, max_sweeps=self.sweeps,
                strategy=selection.SelectionStrategy(
                    kind=kind, alpha=alpha, max_cardinality=cap),
                criterion=rotation.RotationCriterion.varimax(),
            )
            for kind, alpha, cap, method in (
                ("forward", 0.999, self.cap, "pspca"),
                ("backward", 0.95, None, "cspca"),
                ("stepwise", 0.999, self.cap, "uspca"),
            )
        ]

    def run_one(self, x, config):
        result = sparse.run_simpca(x, config)
        report.emit(report.build_report(x, result, {"select": config.strategy.kind}), "json")
        return result


class RotateWide(Pipelines):
    """400 x 48, k=16, nr=16: varimax with Kaiser and CF(0.5) with restarts.

    The rotation runs a fixed number of sweeps (tolerance 0), so the work per
    run is set by the shapes rather than by how quickly a seed's data
    happens to converge.
    """

    name = "rotate-wide"
    shape, small_shape = (400, 48, 16), (100, 16, 6)
    sweeps = 4

    def configs(self):
        nr, nd = (6, 2) if self.small else (16, 4)
        common = dict(
            nd=nd, nr=nr, rotation_tol=0.0, max_sweeps=self.sweeps,
            strategy=selection.SelectionStrategy(kind="fixed-threshold", threshold=0.3),
        )
        return [
            sparse.SimpcaPipelineConfig(
                criterion=rotation.RotationCriterion.varimax(), kaiser=True, restarts=1,
                **common,
            ),
            sparse.SimpcaPipelineConfig(
                criterion=rotation.RotationCriterion.crawford_ferguson(0.5), kaiser=False,
                restarts=2, **common,
            ),
        ]


WORKLOADS = {w.name: w for w in (CliTall, SelectMix, RotateWide)}
