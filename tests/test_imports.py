"""What importing the package loads: numpy and mpmath only on first use."""

import os
import subprocess
import sys

import pytest

import dompoly

SRC = os.path.dirname(os.path.dirname(dompoly.__file__))
HEAVY = ("numpy", "mpmath", "dompoly.limits")


def fresh_stdout(probe: str) -> str:
    """What `probe` prints when run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=SRC))
    return done.stdout


def loaded_after(*argvs) -> list[str]:
    """The modules of HEAVY loaded in a fresh interpreter after importing
    dompoly.cli and running `main` on each argv, its output discarded."""
    return fresh_stdout("import contextlib, io, sys\n"
                        "from dompoly.cli import main\n"
                        f"for argv in {list(argvs)!r}:\n"
                        "    with contextlib.redirect_stdout(io.StringIO()):\n"
                        "        assert main(argv) == 0\n"
                        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
                        ).split()


@pytest.mark.parametrize("argvs, expected", [
    ((), []),
    ((["poly", "--family", "friendship:10"],
      ["roots", "--family", "cycle:30", "--real-only"]), []),
    ((["roots", "--family", "friendship:6"],), ["mpmath"]),
])
def test_cli_loads_heavy_modules_on_first_use(argvs, expected):
    assert loaded_after(*argvs) == expected


def test_every_exported_name_resolves():
    for name in dompoly.__all__:
        assert getattr(dompoly, name) is not None, name
    assert set(dompoly.__all__) <= set(dir(dompoly))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dompoly import *", namespace)
    assert set(dompoly.__all__) <= set(namespace)


def test_lazy_names_are_those_of_the_limits_module():
    """`dompoly.limits` resolves after `import dompoly` alone, as it did when
    the package imported it at start."""
    assert fresh_stdout("import dompoly\n"
                        "print(dompoly.GridRegion is dompoly.limits.GridRegion,\n"
                        "      dompoly.bkw_limit_points is dompoly.limits.bkw_limit_points)\n"
                        ) == "True True\n"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dompoly.no_such_name
