"""The package's public names are its modules' ``__all__`` lists, each once."""

import os
import subprocess
import sys

import tlkcpriv
from tlkcpriv import analysis, anonymize, background, io, log, metrics

MODULES = (analysis, anonymize, background, io, log, metrics)


def test_package_names_are_the_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert len(tlkcpriv.__all__) == len(union) == 62
    assert set(tlkcpriv.__all__) == union


def test_no_name_is_in_two_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_each_package_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tlkcpriv, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_the_command_line_loads_no_scipy():
    # scipy is imported on the first transport solve, so a command that never
    # solves one does not pay for it at start-up
    script = ("import sys, tlkcpriv.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tlkcpriv.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.strip() == "[]"
