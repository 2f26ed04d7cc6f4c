"""The package's public names: each is imported from its module on first access."""

import subprocess
import sys

import pytest

import pfdr_sizer

NAMES = [name for name in pfdr_sizer.__all__ if name != "__version__"]


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_each_name_is_its_defining_modules_object(name):
    obj = getattr(pfdr_sizer, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("pfdr_sizer.")
    assert getattr(home, name) is obj


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from pfdr_sizer import *", namespace)
    assert set(pfdr_sizer.__all__) <= set(namespace)
    for name in NAMES:
        assert namespace[name] is getattr(pfdr_sizer, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pfdr_sizer.no_such_name
    assert not hasattr(pfdr_sizer, "sum_series")


def test_submodules_still_import_by_name():
    from pfdr_sizer import ldp_engine, mc_verify

    assert mc_verify.tail_ratio_mc is pfdr_sizer.tail_ratio_mc
    assert ldp_engine.optimal_split is pfdr_sizer.optimal_split


def test_import_and_dir_load_no_module():
    # dir lists every public name before any is resolved
    out = _fresh(
        "import sys, pfdr_sizer; "
        "missing = set(pfdr_sizer.__all__) - set(dir(pfdr_sizer)); "
        "loaded = [m for m in sys.modules if m.startswith('pfdr_sizer.') or m == 'numpy']; "
        "print(sorted(missing), sorted(loaded))"
    )
    assert out == "[] []\n"


def test_first_access_loads_only_that_names_module():
    out = _fresh(
        "import sys, pfdr_sizer; pfdr_sizer.plan_t; "
        "print(sorted(m for m in sys.modules if m.startswith('pfdr_sizer.') or m == 'numpy'))"
    )
    assert out == "['pfdr_sizer.normal_t', 'pfdr_sizer.numerics', 'pfdr_sizer.pfdr_core']\n"
