"""The package namespace: public names resolve on first use to the objects
their defining submodules hold."""

import re
import sys
from pathlib import Path

import pytest

import gptsteer

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(set(gptsteer.__all__) - {"__version__"}))
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(gptsteer, name)
    assert obj.__module__.startswith("gptsteer.")
    assert obj is getattr(sys.modules[obj.__module__], name)


def test_dir_covers_all():
    assert set(gptsteer.__all__) <= set(dir(gptsteer))
    assert gptsteer.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gptsteer.no_such_name
    assert not hasattr(gptsteer, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gptsteer import *", namespace)
    assert set(gptsteer.__all__) <= set(namespace)
    assert namespace["robustness"] is gptsteer.robustness


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(code.group(1), {})
    classical, robustness, detection = capsys.readouterr().out.split()
    assert classical == "False"
    assert float(robustness) == pytest.approx(0.5, abs=1e-9)
    assert float(detection) == pytest.approx(2.0, abs=1e-9)
