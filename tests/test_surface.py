"""The package's surface: what it exports and what it raises.

``simpca`` exports the names that ``tests/test_acceptance.py`` imports from
it, and ``plain_threshold_component``; every other public name is imported
from its module. No module of the package raises a builtin exception, and
every error class sits under exactly one of the three families that the
CLI maps to an exit code: ``ConfigError`` 2, ``DataError`` 3,
``NumericalError`` 4."""

import ast
import builtins
import inspect
from pathlib import Path

import numpy as np
import pytest

import simpca
from simpca import cli, errors, sparse

from conftest import EUROJOBS

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = (errors.ConfigError, errors.DataError, errors.NumericalError)


def test_exports_are_the_contract():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    contract = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "simpca"
                for a in node.names}
    assert sorted(simpca.__all__) == sorted(contract | {"plain_threshold_component"})
    assert all(hasattr(simpca, name) for name in simpca.__all__)


def _builtin_raises(source):
    """(line, name) of every ``raise`` of a builtin exception class, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            obj = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(obj, type) and issubclass(obj, BaseException):
                found.append((node.lineno, exc.id))
    return sorted(found)


def test_builtin_raise_is_found():
    source = (
        "def f(x):\n    if x:\n        raise ValueError('x')\n    raise TypeError\n"
        "def g(exc):\n    try:\n        pass\n    except KeyError:\n        raise\n"
        "    raise exc\n    raise ConfigError('y') from None\n"
    )
    assert _builtin_raises(source) == [(3, "ValueError"), (4, "TypeError")]


def test_package_raises_no_builtin_exception():
    found = {}
    for path in sorted((ROOT / "src" / "simpca").glob("*.py")):
        raises = _builtin_raises(path.read_text(encoding="utf-8"))
        if raises:
            found[path.name] = raises
    assert found == {}


def _families(cls):
    """The names of the exit-code families an error class sits under."""
    return [family.__name__ for family in FAMILIES if issubclass(cls, family)]


def test_family_count_is_found():
    class Both(errors.ConfigError, errors.DataError):
        pass

    class Neither(errors.SimpcaError):
        pass

    assert _families(Both) == ["ConfigError", "DataError"]
    assert _families(Neither) == []
    assert _families(errors.RankExceeded) == ["ConfigError"]


def test_every_error_sits_under_one_family():
    bases = {errors.SimpcaError, *FAMILIES}
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__ and cls not in bases]
    assert classes
    assert {cls.__name__: _families(cls) for cls in classes
            if len(_families(cls)) != 1} == {}
    # a configuration error is also what Python code expects of a bad argument
    assert issubclass(errors.ConfigError, errors.SimpcaError)
    assert issubclass(errors.ConfigError, ValueError)


ARGV = ["simpca", "--input", EUROJOBS, "--id-column", "country", "--scale", "none",
        "--nr", "3", "--nd", "2"]


_DATA_OPTIONS = ["--input", "--id-column", "--response", "--scale", "--delimiter", "--out"]
_ROTATION_OPTIONS = ["--coef-scale", "--criterion", "--kappa", "--kaiser", "--nr", "--seed",
                     "--restarts"]
# every option string of each subcommand, in the parser's order: a change
# that adds, renames or drops a flag changes this list with it
OPTIONS = {
    "pca": ["-h", "--help", *_DATA_OPTIONS, "--nd", "--format"],
    "rotate": ["-h", "--help", *_DATA_OPTIONS, *_ROTATION_OPTIONS],
    "simpca": ["-h", "--help", *_DATA_OPTIONS, *_ROTATION_OPTIONS, "--nd", "--select",
               "--alpha", "--threshold", "--t0", "--step", "--norm", "--method", "--deflate",
               "--no-deflate", "--format"],
}


def test_each_subcommand_takes_the_pinned_options():
    # read off the parser's actions, not --help, whose layout varies
    # between Python versions
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a.choices, dict))
    assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]
    assert {name: [s for a in sub._actions for s in a.option_strings]
            for name, sub in commands.choices.items()} == OPTIONS


def _failing(exc):
    def run(rec, config):
        raise exc
    return run


def test_cli_svd_that_does_not_converge_is_a_numerical_failure(monkeypatch, capsys):
    # numpy's LinAlgError is also a ValueError, but not a configuration error
    exc = np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(sparse, "run_simpca", _failing(exc))
    assert cli.main(ARGV) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == "numerical failure: SVD did not converge\n"


@pytest.mark.parametrize("exc", [ValueError("bug"), errors.SimpcaError("bug")])
def test_cli_gives_an_untyped_error_no_exit_code(exc, monkeypatch):
    # outside the three families an error is a fault of the package, and
    # no exit code would describe it
    monkeypatch.setattr(sparse, "run_simpca", _failing(exc))
    with pytest.raises(type(exc)):
        cli.main(ARGV)
