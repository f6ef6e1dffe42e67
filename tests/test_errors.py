"""The package's error contract: one base for every domain error, and no
handler that catches more than domain errors."""

import importlib
import pkgutil
import re
from pathlib import Path

import strangedual
from strangedual import StrangedualError


def test_every_error_class_has_the_one_base():
    errors = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(strangedual.__path__)
        for name, value in vars(importlib.import_module(f"strangedual.{info.name}")).items()
        if name.endswith("Error") and isinstance(value, type)
    }
    assert "cli.CommandError" in errors and "coxeter.ArmRangeError" in errors
    assert [name for name, cls in errors.items() if not issubclass(cls, StrangedualError)] == []


def test_no_handler_catches_every_exception():
    broad = re.compile(r"^\s*except\s*(:|.*\b(Base)?Exception\b)")
    found = [
        f"{path.name}:{number}"
        for path in sorted(Path(strangedual.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if broad.match(line)
    ]
    assert found == []
