"""Source hygiene: no module imports a name it never uses, every name a
module exports exists, the package imports only at module level and loads
none of numpy's lazily loaded subpackages, only
functions of raw radii take a profile or a p, no command line spells a
config setting as its own flag, every script the README names exists,
every flag of a README command line exists, and every python block of the
README runs."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

from conftest import python_blocks
from faddeevlab.evolve import CONFIG_TABLE

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "faddeevlab").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source):
    """Imported names that appear nowhere else in the module and are not
    listed in its __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    src = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(src) == [(2, "pi")]


@pytest.mark.parametrize("path", SOURCES + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dangling_exports(module):
    """Names in module.__all__ that the module does not define. The unused-
    import scan counts every __all__ name as used, so it cannot see these."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_the_check_sees_a_dangling_export():
    mod = types.ModuleType("m")
    mod.__all__, mod.kept = ["kept", "deleted"], 1
    assert dangling_exports(mod) == ["deleted"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_export_resolves(path):
    assert dangling_exports(importlib.import_module(f"faddeevlab.{path.stem}")) == []


def local_imports(source):
    """Line numbers of import statements inside a function body."""
    return sorted({node.lineno
                   for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_scan_sees_a_local_import():
    src = ("import os\n"
           "def f():\n"
           "    from math import pi\n"
           "    def g():\n"
           "        import sys\n"
           "    return pi\n")
    assert local_imports(src) == [3, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_local_imports(path):
    assert local_imports(path.read_text()) == []


# numpy loads these on first use: 0.8, 1.3 and 6.4 MB of RSS (numpy 2.4, x86-64)
LAZY_SUBPACKAGES = {"polynomial", "ma", "random"}


def lazy_subpackage_uses(source):
    """(enclosing top-level function, line, subpackage) of every np.X or
    numpy.X attribute and every import of numpy.X, for X a lazily loaded
    subpackage; "" for a use at module level."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("numpy.")]
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and node.module.split(".")[0] == "numpy"):
                parts = node.module.split(".")
                names = parts[1:2] or [alias.name for alias in node.names]
            else:
                continue
            found += [(getattr(top, "name", ""), node.lineno, name)
                      for name in names if name in LAZY_SUBPACKAGES]
    return sorted(found)


def test_the_scan_sees_a_lazy_subpackage():
    src = ("import numpy as np\n"
           "from . import kernels\n"
           "import numpy.polynomial.legendre as leg\n"
           "from numpy import ma, linalg\n"
           "from numpy.random import default_rng\n"
           "def f(x):\n"
           "    return np.polynomial.polynomial.polyval(x, [1.0]) + np.maximum(x, 0)\n"
           "def g():\n"
           "    import numpy.random\n"
           "    return numpy.ma.masked, np.random.default_rng(0), np.linalg.norm\n")
    assert lazy_subpackage_uses(src) == [("", 3, "polynomial"), ("", 4, "ma"),
                                         ("", 5, "random"), ("f", 7, "polynomial"),
                                         ("g", 9, "random"), ("g", 10, "ma"),
                                         ("g", 10, "random")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_the_package_loads_no_lazy_numpy_subpackage(path):
    assert lazy_subpackage_uses(path.read_text()) == []


def cutoff_calls(source):
    """(enclosing top-level function, line) of every call to eval_cutoff,
    by bare name or as an attribute; "" for a call at module level."""
    calls = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            fn = getattr(node, "func", None)
            if getattr(fn, "id", getattr(fn, "attr", None)) == "eval_cutoff":
                calls.append((getattr(top, "name", ""), node.lineno))
    return sorted(calls)


def test_the_scan_sees_a_cutoff_call():
    src = ("from faddeevlab import kernels\n"
           "from faddeevlab.kernels import eval_cutoff\n"
           "def f(r):\n"
           "    return [eval_cutoff('phi', x) for x in r]\n"
           "phi = kernels.eval_cutoff('phi', 1.5)\n")
    assert cutoff_calls(src) == [("", 5), ("f", 4)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "kernels.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_cutoffs_are_evaluated_only_in_the_mesh_table(path):
    """A mesh reads its cutoffs from kernels.cutoff_arrays; outside kernels.py
    only the verify suite's scalar finite-difference checks call eval_cutoff."""
    allowed = {"_check_cutoff_derivatives"} if path.name == "cli.py" else set()
    assert [call for call in cutoff_calls(path.read_text()) if call[0] not in allowed] == []


def params_named(source, name):
    """(function, line) of every function or lambda with a parameter called
    name, at any depth; a lambda is named "<lambda>"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(arg is not None and arg.arg == name for arg in params):
                found.append((getattr(node, "name", "<lambda>"), node.lineno))
    return sorted(found)


def test_the_scan_sees_a_profile_parameter():
    src = ("def f(r, profile=None):\n"
           "    def g(*, profile):\n"
           "        return profile\n"
           "    return g\n"
           "h = lambda v, profile: v\n"
           "def k(grid, **profile):\n"
           "    return grid.profile\n"
           "def m(grid, profiles):\n"
           "    return profiles\n"
           "def e(u_state, p=None, *, v_r=None):\n"
           "    return lambda y, p: y\n")
    assert params_named(src, "profile") == [("<lambda>", 5), ("f", 1), ("g", 2), ("k", 6)]
    assert params_named(src, "p") == [("<lambda>", 11), ("e", 10)]


# The kernels of raw radii have no grid; every other evaluator reads the
# shell profile and alpha from the grid of its state, window or mesh.
RADII_FUNCTIONS = {"eval_cutoff", "laplacian_phi_2d", "cutoff_arrays", "eval_F_rhs"}
P_FUNCTIONS = {"transform": {"phi_correction_integral", "_a4_line_integral",
                             "_a3_line_integral"},
               "verify": {"kernel_limit", "kernel_series_oracle"}}


@pytest.mark.parametrize("name", ["grid", "transform", "diagnostics", "evolve",
                                  "verify", "kernels"])
def test_only_functions_of_radii_take_a_profile(name):
    source = (ROOT / "src" / "faddeevlab" / f"{name}.py").read_text()
    allowed = RADII_FUNCTIONS if name == "kernels" else set()
    assert [fn for fn in params_named(source, "profile") if fn[0] not in allowed] == []


@pytest.mark.parametrize("name", ["grid", "transform", "diagnostics", "evolve", "verify"])
def test_only_functions_of_radii_take_p(name):
    source = (ROOT / "src" / "faddeevlab" / f"{name}.py").read_text()
    allowed = P_FUNCTIONS.get(name, set())
    assert [fn for fn in params_named(source, "p") if fn[0] not in allowed] == []


SETTING_FIELDS = {key.split(".", 1)[1] for key, _, _ in CONFIG_TABLE}


def argument_names(source):
    """(line, name) of every string an add_argument call takes positionally:
    its flags, or the name of a positional argument."""
    return sorted((node.lineno, arg.value)
                  for node in ast.walk(ast.parse(source))
                  if getattr(getattr(node, "func", None), "attr", None) == "add_argument"
                  for arg in node.args
                  if isinstance(arg, ast.Constant) and isinstance(arg.value, str))


def setting_flags(source):
    """(line, flag) of every add_argument flag that names a config setting,
    such as --n-cells for grid.n_cells: a setting is given as --set
    section.key=value, in the one vocabulary faddeevlab checks."""
    return [(line, name) for line, name in argument_names(source)
            if name.lstrip("-").replace("-", "_") in SETTING_FIELDS]


def test_the_scan_sees_a_setting_flag():
    src = ("ap.add_argument('--n-cells', type=int)\n"
           "ap.add_argument('-o', '--out')\n"
           "sp.add_argument('--t-center', '--alpha', help='--r-max')\n"
           "ap.add_argument('--set', action='append')\n")
    assert setting_flags(src) == [(1, "--n-cells"), (3, "--alpha")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_flag_spells_a_setting(path):
    assert setting_flags(path.read_text()) == []


def named_scripts(text):
    """Every scripts/<name>.py a text names, in order of first mention."""
    return list(dict.fromkeys(re.findall(r"scripts/([\w-]+\.py)", text)))


def test_the_scan_sees_a_named_script():
    text = "Run `scripts/a_b.py`, then python scripts/c-d.py and scripts/a_b.py."
    assert named_scripts(text) == ["a_b.py", "c-d.py"]


def test_every_script_the_readme_names_exists():
    names = named_scripts((ROOT / "README.md").read_text())
    assert names and [n for n in names if not (ROOT / "scripts" / n).is_file()] == []


def command_flags(text):
    """(command, flag) of every --flag on a `faddeevlab SUB` or `python
    scripts/X.py` line of a markdown text's sh blocks, continuation lines
    joined and comments dropped; the command is "faddeevlab" or "X.py"."""
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            m = re.match(r"\s*(?:(faddeevlab) [\w-]+|python scripts/([\w-]+\.py))(.*)",
                         re.sub(r"\s#.*", "", line))
            if m:
                found += [(m[1] or m[2], flag)
                          for flag in re.findall(r"(?<!\S)--[\w-]+", m[3])]
    return found


def test_the_scan_sees_a_command_flag():
    text = ("```sh\n"
            "# faddeevlab run --commented\n"
            "faddeevlab sweep --set a=1 \\\n"
            "    --jobs 2  # --noted\n"
            "python scripts/s.py --observables drift --forced no \\\n"
            "    --set b=2 --out x--y\n"
            "pip install --user x\n"
            "```\n"
            "```python\nfaddeevlab run --out x\n```\n")
    assert command_flags(text) == [("faddeevlab", "--set"), ("faddeevlab", "--jobs"),
                                   ("s.py", "--observables"), ("s.py", "--forced"),
                                   ("s.py", "--set"), ("s.py", "--out")]


def undefined_flags(text):
    """The (command, flag) pairs of command_flags(text) whose parser does not
    define the flag: src/faddeevlab/cli.py's for faddeevlab, the script's
    own for a script."""
    found = command_flags(text)
    paths = {cmd: ROOT / "src" / "faddeevlab" / "cli.py" if cmd == "faddeevlab"
             else ROOT / "scripts" / cmd for cmd, _ in found}
    defined = {cmd: {name for _, name in argument_names(path.read_text())}
               for cmd, path in paths.items()}
    return [(cmd, flag) for cmd, flag in found if flag not in defined[cmd]]


def test_the_check_sees_a_stale_flag():
    text = ("```sh\n"
            "faddeevlab sweep --sweep grid.n_cells=32,64 --jobs 2\n"
            "python scripts/convergence_suite.py --observables drift --forced no \\\n"
            "    --set grid.n_cells=256\n"
            "```\n")
    assert undefined_flags(text) == [("convergence_suite.py", "--forced")]


def test_every_readme_command_flag_exists():
    readme = (ROOT / "README.md").read_text()
    assert command_flags(readme) and undefined_flags(readme) == []


def test_the_scan_sees_a_python_block():
    text = "```sh\nls\n```\n```python\nx = 1\n```\n```python\ny = 2\n```\n"
    assert python_blocks(text) == ["x = 1\n", "y = 2\n"]


def test_every_readme_python_block_runs(readme_block_outputs):
    """Each block runs once, on its own, in an empty working directory;
    tests/test_cli.py checks what each block prints."""
    assert len(readme_block_outputs) == 3
