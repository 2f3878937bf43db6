"""Command-line front end.

Subcommands: ``pca`` (variance spectrum and optional response R^2),
``rotate`` (rotated coefficient table, TSV), ``simpca`` (full sparse
pipeline with the summary report); ``pca`` and ``simpca`` write TSV or
JSON (``--format``). ``rotate`` prints the components the pipeline's first
step starts from, ordered by variance explained with signs fixed, and
takes its rotation settings from the same flags as ``simpca``. An nr, or a
``pca`` nd, above the numerical rank of the data is ``RankExceeded``.

Each command reads the data through one QR of X, and no n-row array is
read after it: the record of ``_load`` holds F of X and, when
``--response`` names one, the centered response y reflected into the
last column [c; rho] of R([X y]), so a response never changes a
component.

Exit codes: 0 success, 2 configuration error (``ConfigError``), 3 data
error (``DataError``, ``OSError``), 4 numerical failure (``NumericalError``,
numpy's ``LinAlgError``). A flag whose check needs no data is checked
before the input is read. Every message names a bad cell by its data row,
counted from 1, and its column's header, and a constant column by its
header.
"""

import argparse
import sys

import numpy as np

from . import core, pca, report, rotation, selection, sparse
from .errors import (ConfigError, ConstantData, DataError, NonFiniteInput, NumericalError,
                     ZeroVarianceColumn)


# the CLI's names of the library's coefficient scalings, selection kinds
# and norms, in the library's order (pca.SCALINGS, selection.KINDS,
# selection.NORMS); --criterion takes rotation.PRESETS' names and cf
_COEF_SCALES = {
    "l2": "unit-l2",
    "normalized": "component-unit-norm",
    "eigen-normalized": "inverse-eigenvalue",
}

_SELECT_KINDS = {
    "threshold": "fixed-threshold",
    "adaptive": "adaptive-threshold",
    "iter-threshold": "iterative-reverse-threshold",
    "forward": "forward",
    "backward": "backward",
    "stepwise": "stepwise",
}

_NORMS = {str(m): m for m in selection.NORMS}


def _common_data_args(p):
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--id-column", default=None,
                   help="row-identifier column, excluded from the features")
    p.add_argument("--response", default=None,
                   help="response column, excluded from the features")
    p.add_argument("--scale", required=True, choices=["none", "unit-variance"],
                   help="column scaling (no default: choose per dataset)")
    p.add_argument("--delimiter", default=None, help="comma by default, tab accepted")
    p.add_argument("--out", default=None, help="output path (stdout by default)")


def _rotation_args(p):
    p.add_argument("--coef-scale", default="normalized",
                   choices=list(_COEF_SCALES),
                   help="coefficient scaling before rotation: unit-L2 columns, "
                        "divided by the singular value, or divided by the "
                        "eigenvalue of X'X")
    p.add_argument("--criterion", default="varimax",
                   choices=[*rotation.PRESETS, "cf"])
    p.add_argument("--kappa", type=float, default=None,
                   help="Crawford-Ferguson kappa (only with --criterion cf)")
    p.add_argument("--kaiser", action="store_true",
                   help="unit row norms before rotation, undone afterwards")
    p.add_argument("--nr", type=int, required=True, help="components to rotate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simpca",
        description="Sparse components from rotated principal components",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pca = sub.add_parser("pca", help="variance-explained spectrum")
    _common_data_args(p_pca)
    p_pca.add_argument("--nd", type=int, required=True,
                       help="components to report (0: every one up to the rank)")

    p_rot = sub.add_parser("rotate", help="rotated coefficient table (TSV)")
    _common_data_args(p_rot)
    _rotation_args(p_rot)

    p_run = sub.add_parser("simpca", help="full sparse pipeline")
    _common_data_args(p_run)
    _rotation_args(p_run)
    p_run.add_argument("--nd", type=int, required=True, help="components to output")
    p_run.add_argument("--select", default="forward", choices=list(_SELECT_KINDS))
    p_run.add_argument("--alpha", type=float, default=0.95)
    p_run.add_argument("--threshold", type=float, default=0.3)
    p_run.add_argument("--t0", type=float, default=0.25)
    p_run.add_argument("--step", type=float, default=0.05)
    p_run.add_argument("--norm", default="2", choices=list(_NORMS))
    p_run.add_argument("--method", default="pspca", choices=sparse.METHODS)
    deflate = p_run.add_mutually_exclusive_group()
    deflate.add_argument("--deflate", dest="deflate", action="store_true")
    deflate.add_argument("--no-deflate", dest="deflate", action="store_false")
    p_run.set_defaults(deflate=True)
    # rotate writes its coefficient table as TSV only
    for p in (p_pca, p_run):
        p.add_argument("--format", default="tsv", choices=["tsv", "json"])
    return parser


def _criterion_from_args(args):
    if args.criterion == "cf":
        if args.kappa is None:
            raise ConfigError("--criterion cf requires --kappa")
        return rotation.RotationCriterion.crawford_ferguson(args.kappa)
    if args.kappa is not None:
        raise ConfigError("--kappa only applies to --criterion cf")
    return rotation.PRESETS[args.criterion](args.nr)


def _load(args):
    """The record every command reads (``core._factor_of``): F of the
    centered data X, its n and names, and with ``--response`` [c; rho] of
    the centered response. No n-row array is kept."""
    names, values, _, resp = report.ingest_csv(
        args.input,
        response_column=args.response,
        id_column=args.id_column,
        delimiter=args.delimiter,
    )
    # named as the CSV reader names a bad cell: 1-based row, header
    try:
        x = core.center_scale(values, scaling=args.scale, column_names=names)
    except NonFiniteInput as exc:
        raise NonFiniteInput(exc.row + 1, names[exc.col]) from None
    except ZeroVarianceColumn as exc:
        raise ZeroVarianceColumn(names[exc.index]) from None
    if resp is not None and not np.isfinite(resp).all():
        raise NonFiniteInput(int(np.argmin(np.isfinite(resp))) + 1, args.response)
    # also true with no feature column; any variance left is centering's
    # round-off, which the library accepts but no analysis should report
    if np.all(values == values[0]):
        raise ConstantData(values.shape[1])
    del values  # the raw block, freed before the QR copies the centered one
    return core._factor_of(x, y=resp)


def _echo(args, skip=("out",)):
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write(payload, args):
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)


def _cmd_pca(args):
    core._count(args.nd, "nd", least=0)
    # --nd 0 reports every component up to the rank, read off the one SVD;
    # the echo holds the count reported, as --nd <rank> would
    rep = report.pca_report(_load(args), args.nd or None, _echo(args))
    rep.config["nd"] = len(rep.pca_vexp_pct)
    _write(report.emit(rep, args.format), args)


def _config(args, nd, strategy, **pipeline):
    """The pipeline config of ``rotate`` and ``simpca``, which read the
    rotation settings from the same flags; built before the data is read."""
    core._count(args.nr, "nr")  # before equamax(nr) reports it as a bad c
    return sparse.SimpcaPipelineConfig(
        nd=nd,
        nr=args.nr,
        strategy=strategy,
        criterion=_criterion_from_args(args),
        coefficient_scaling=_COEF_SCALES[args.coef_scale],
        kaiser=args.kaiser,
        restarts=args.restarts,
        seed=args.seed,
        **pipeline,
    )


def _cmd_rotate(args):
    # the table is the pipeline's step 1, which selects nothing: a fixed
    # threshold of 0, which keeps every variable, stands for any strategy
    keep_all = selection.SelectionStrategy("fixed-threshold", threshold=0.0)
    config = _config(args, args.nr, keep_all)
    rec = _load(args)
    b, _, _, result = pca._first_step(rec, config)
    lines = ["\t".join(["variable"] + [f"comp{j + 1}" for j in range(args.nr)])]
    for name, row in zip(rec.column_names, b):
        lines.append("\t".join([name] + [f"{v:.6f}" for v in row]))
    if result is None:
        lines.append("# not rotated: a single component")
    else:
        lines.append(f"# converged\t{result.converged}\tsweeps\t{result.sweeps_used}")
    _write(("\n".join(lines) + "\n").encode(), args)


def _cmd_simpca(args):
    strategy = selection.SelectionStrategy(
        kind=_SELECT_KINDS[args.select],
        alpha=args.alpha,
        threshold=args.threshold,
        t0=args.t0,
        step=args.step,
        norm_m=_NORMS[args.norm],
    )
    config = _config(args, args.nd, strategy, method=args.method, deflate=args.deflate)
    rec = _load(args)
    rep = report.build_report(rec, sparse.run_simpca(rec, config), _echo(args))
    _write(report.emit(rep, args.format), args)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"pca": _cmd_pca, "rotate": _cmd_rotate, "simpca": _cmd_simpca}
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    # an SVD that does not converge is numpy's LinAlgError
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
