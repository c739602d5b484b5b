"""The error contract: every argument qdesk rejects raises BadParameter or
one of its two subclasses, and a numerical failure IntegratorDiverged."""
import ast
import inspect
from pathlib import Path

import pytest

from qdesk import errors

SRC = Path(errors.__file__).resolve().parent

CLASSES = {
    "QdeskError": (Exception,),
    "BadParameter": (errors.QdeskError, ValueError),
    "DimensionMismatch": (errors.BadParameter,),
    "TargetOutOfRange": (errors.BadParameter, IndexError),
    "IntegratorDiverged": (errors.QdeskError, RuntimeError),
}


def test_five_classes_with_their_bases():
    defined = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    assert set(defined) == set(CLASSES)
    for name, bases in CLASSES.items():
        assert defined[name].__bases__ == bases, name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_raise_names_a_qdesk_error(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue  # not a raise, or a bare re-raise
        exc = node.exc
        name = exc.func if isinstance(exc, ast.Call) else exc
        assert isinstance(name, ast.Name), ast.unparse(node)
        # `raise SystemExit(main())` is the exit of `python -m qdesk.cli`
        assert name.id in CLASSES or name.id == "SystemExit", \
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
