"""_native._load_fill compiles _fill.c into a CPython extension module in the
package's __pycache__ on the first import and only loads it after that.
Each test imports a copy of src/ in a fresh process, so this checkout's own
cache is never touched.
"""

import ctypes
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
INCLUDE = sysconfig.get_paths()["include"]
PROBE = (
    "import mecouple as mc; "
    "print(mc.min_entropy_coupling(mc.make_probvec([0.5, 0.5]), mc.make_probvec([0.6, 0.4])).nnz)"
)


@pytest.fixture
def package(tmp_path) -> Path:
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src" / "mecouple"


def import_in_a_fresh_process(package: Path, **env) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1", **env}
    return subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)


def cached(package: Path) -> list[Path]:
    return sorted((package / "__pycache__").iterdir())


def test_a_cold_import_builds_the_library_once(package):
    done = import_in_a_fresh_process(package)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "3\n"
    # one build under its key, tied to this interpreter's ABI by its suffix,
    # and no temporary file left beside it
    [library] = cached(package)
    assert library.name.startswith("_fill.") and library.name.endswith(EXT_SUFFIX)


def test_a_warm_import_loads_the_cached_library_without_a_compiler(package):
    assert import_in_a_fresh_process(package).returncode == 0
    [library] = cached(package)
    before = library.stat()
    done = import_in_a_fresh_process(package, PATH="")  # no compiler could run
    assert done.returncode == 0, done.stderr
    after = library.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert cached(package) == [library]


def test_an_edited_source_gets_a_new_key_and_is_rebuilt(package):
    assert import_in_a_fresh_process(package).returncode == 0
    [first] = cached(package)
    with open(package / "_fill.c", "a") as f:
        f.write("/* edited */\n")
    done = import_in_a_fresh_process(package)
    assert done.returncode == 0, done.stderr
    assert len(cached(package)) == 2 and first in cached(package)


def test_a_cache_that_cannot_be_made_builds_in_a_private_directory(package, tmp_path):
    # a plain file where __pycache__ would go: root's writes are not stopped
    # by permissions, but no directory can be made there
    (package / "__pycache__").write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    done = import_in_a_fresh_process(package, TMPDIR=str(scratch))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "3\n"
    assert (package / "__pycache__").is_file()
    assert list(scratch.iterdir()) == []  # the private directory is removed once loaded


def test_no_compiler_raises_import_error_naming_the_command(package):
    done = import_in_a_fresh_process(package, PATH="")
    assert done.returncode != 0
    compiler = shlex.join(shlex.split(sysconfig.get_config_var("CC") or "cc"))
    assert "ImportError: mecouple needs a C compiler" in done.stderr
    assert f"`{compiler} -O2 -ffp-contract=off -fPIC -shared -I{INCLUDE} -o " in done.stderr
    assert cached(package) == []


def test_the_source_compiles_without_warnings(tmp_path):
    # -Wall -Wextra -Werror catch what a raw-pointer loop invites, such as an
    # unsequenced write (-Wsequence-point); the package builds without them
    from mecouple._native import _CFLAGS

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    cmd = [*compiler, *_CFLAGS, "-Wall", "-Wextra", "-Werror", f"-I{INCLUDE}",
           "-o", str(tmp_path / "_fill.so"), str(SRC / "mecouple" / "_fill.c")]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_library_exports_the_wrapped_entry_points_only():
    # segments() is a static helper of prepare(), reached through it alone,
    # and solve() one of oracle(); the stages are static too, so the shared
    # object exports the module's init function and none of them
    from mecouple import _native

    names = {name for name in vars(_native.LIB) if not name.startswith("__")}
    assert names == {"meet", "prepare", "fill", "check", "oracle"}
    shared = ctypes.CDLL(_native.LIB.__file__)
    assert hasattr(shared, "PyInit__fill")
    for symbol in (*names, "segments", "solve"):
        with pytest.raises(AttributeError):
            getattr(shared, symbol)
