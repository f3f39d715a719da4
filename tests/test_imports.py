"""The package loads only the modules a program uses.

`import extalg` and `import extalg.cli` load no other extalg module, each
subcommand imports what it runs, and the package's names resolve to the
defining module's objects on every access.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extalg

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("cli", "core", "fields", "setfamilies", "structure", "subspace", "text", "verify")
GAMMA_DOC = {"n": 2, "field": "rational", "basis": ["v{1}+v{2}"]}


def loaded_after(code):
    """The extalg modules a fresh interpreter holds after running code."""
    code += "\nimport sys\nprint(*(m for m in sys.modules if m.split('.')[0] == 'extalg'))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return {m.replace("extalg.", "", 1) for m in done.stdout.splitlines()[-1].split()}


def cli_code(*argv):
    return "import extalg.cli\nassert extalg.cli.main(%r) == 0" % (list(argv),)


def test_import_extalg_loads_only_the_package():
    assert loaded_after("import extalg") == {"extalg"}


def test_import_cli_loads_only_the_package_and_cli():
    assert loaded_after("import extalg.cli") == {"extalg", "cli"}


def test_eval_loads_core_fields_and_text():
    assert loaded_after(cli_code("eval", "--n", "3", "v{1}*v{2,3}")) == {"extalg", "cli", "core", "fields", "text"}


def test_gamma_adds_the_split_chain_but_not_structure_or_verify(tmp_path):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps(GAMMA_DOC))
    got = loaded_after(cli_code("gamma", str(doc), "--json"))
    assert got == {"extalg", "cli", "core", "fields", "text", "subspace", "setfamilies"}


def test_analyze_adds_structure_but_not_verify(tmp_path):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps(GAMMA_DOC))
    got = loaded_after(cli_code("analyze", str(doc), "--json"))
    assert got == {"extalg", "cli", "core", "fields", "text", "subspace", "setfamilies", "structure"}


def test_a_submodule_loads_on_first_access_through_the_package():
    got = loaded_after("import extalg\nassert extalg.verify.CHECKS and extalg.cli.main")
    assert got == {"extalg"} | set(SUBMODULES)


def test_every_exported_name_is_the_defining_modules_object():
    modules = [getattr(extalg, m) for m in SUBMODULES]
    for name in extalg.__all__:
        obj = getattr(extalg, name)
        owner = getattr(obj, "__module__", "")
        if owner.startswith("extalg."):
            owners = [sys.modules[owner]]
        else:  # a plain value, such as DEFAULT_BUDGET
            owners = [m for m in modules if vars(m).get(name) is obj]
        assert len(owners) == 1 and getattr(owners[0], name) is obj, name
        assert name not in vars(extalg), name


def test_an_exported_name_follows_its_module(monkeypatch):
    # nothing is cached in the package, so a rebinding in the defining
    # module shows through it at once and is gone once undone
    import extalg.subspace as subspace

    span = subspace.span
    sentinel = object()
    monkeypatch.setattr(subspace, "span", sentinel)
    assert extalg.span is sentinel
    monkeypatch.undo()
    assert extalg.span is span


def test_dir_lists_the_exports_and_submodules():
    assert set(extalg.__all__) | set(SUBMODULES) <= set(dir(extalg))
    assert extalg.__all__ == sorted(extalg.__all__) and len(extalg.__all__) == 73


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        extalg.nope  # noqa: B018
    assert not hasattr(extalg, "nope")


def test_star_import_binds_every_exported_name():
    ns = {}
    exec("from extalg import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == extalg.__all__
    assert all(ns[name] is getattr(extalg, name) for name in ns)
