"""The package loads a layer only when it is used: `import zetagraph` loads
none, and `stats` and `primes` run on the graph layer, which needs the
standard library alone: neither numpy nor scipy loads for them, nor
dataclasses, nor the ctypes that opens OpenBLAS."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetagraph
from zetagraph import fixtures
from zetagraph.graph import serialize_graph

ENV = {**os.environ, "PYTHONPATH": str(Path(zetagraph.__file__).parents[1])}


def imported(args: list[str], **env: str) -> set[str]:
    """The modules a fresh interpreter running args imports, read from
    -X importtime, which names each one as it is first imported."""
    r = subprocess.run([sys.executable, "-X", "importtime", *args], env={**ENV, **env},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    return {line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines()
            if line.startswith("import time:") and "|" in line} - {"imported package"}


def package_modules(modules: set[str], package: str) -> set[str]:
    return {m for m in modules if m == package or m.startswith(f"{package}.")}


@pytest.fixture(scope="module")
def k3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("layers") / "k3.json"
    path.write_text(serialize_graph(fixtures.catalogue()["k3"]) + "\n")
    return str(path)


def test_importing_the_package_loads_no_layer():
    modules = imported(["-c", "import zetagraph"])
    assert "zetagraph" in modules
    assert {m for m in modules if m.startswith("zetagraph.")} == set()
    assert package_modules(modules, "scipy") == set()


@pytest.mark.parametrize("argv", (["stats"], ["primes", "--max-len", "6"]))
def test_graph_layer_commands_load_neither_numpy_nor_scipy(k3_file, argv):
    modules = imported(["-m", "zetagraph", argv[0], k3_file, *argv[1:]])
    assert "zetagraph.graph" in modules and "zetagraph.cli" in modules
    assert package_modules(modules, "numpy") == set()
    assert package_modules(modules, "scipy") == set()
    assert "zetagraph.operators" not in modules and "zetagraph.routes" not in modules
    assert "zetagraph.series" not in modules


@pytest.mark.parametrize("argv", (["stats"], ["primes", "--max-len", "6"]))
def test_graph_layer_commands_load_no_dataclasses_or_ctypes(k3_file, argv):
    modules = imported(["-m", "zetagraph", argv[0], k3_file, *argv[1:]])
    assert "zetagraph.graph" in modules
    assert {"dataclasses", "inspect", "ctypes"} & modules == set()
    assert "zetagraph.blas" not in modules


def test_the_graph_layer_loads_numpy_only_for_its_arrays():
    modules = imported(["-c", "import zetagraph.graph"])
    assert "zetagraph.graph" in modules and package_modules(modules, "numpy") == set()
    modules = imported(["-c", "from zetagraph import fixtures; "
                              "a = fixtures.catalogue()['k3'].edge_arrays; "
                              "assert a.weight.dtype == 'float64' and len(a.edges) == 6 "
                              "and list(a.reversal[a.reversal]) == list(range(6))"])
    assert "numpy" in modules and package_modules(modules, "scipy") == set()


def test_the_series_layer_loads_no_graph_layer():
    modules = imported(["-c", "import zetagraph.series"])
    assert "zetagraph.series" in modules and "zetagraph.graph" not in modules


def test_the_thread_cap_is_checked_and_applied_without_numpy(k3_file):
    """stats validates ZETAGRAPH_THREADS, and exits 1 on a bad value, but runs
    no BLAS, so it does not apply the count: under a valid value it loads
    neither numpy nor the ctypes that would open numpy's OpenBLAS."""
    args = [sys.executable, "-m", "zetagraph", "stats", k3_file]
    bad = subprocess.run(args, env={**ENV, "ZETAGRAPH_THREADS": "abc"},
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 1 and "ZETAGRAPH_THREADS" in bad.stderr
    modules = imported(["-m", "zetagraph", "stats", k3_file], ZETAGRAPH_THREADS="2")
    assert package_modules(modules, "numpy") == set()
    assert "ctypes" not in modules and "zetagraph.blas" not in modules


def test_the_openblas_found_without_numpy_is_the_one_numpy_links():
    """The thread count set before numpy is imported holds after it: the
    loader maps numpy's OpenBLAS once."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to list the loaded libraries")
    script = ("import sys; from zetagraph import blas; t = blas.threads()\n"
              "if t is None: sys.exit(0)\n"
              "t[1](2); assert 'numpy' not in sys.modules\n"
              "import numpy\n"
              "maps = {line.split()[-1] for line in open('/proc/self/maps') if 'openblas' in line}\n"
              "print(len(maps), t[0]())")
    r = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout in ("", "1 2\n")


def test_route_commands_load_scipy(k3_file):
    modules = imported(["-m", "zetagraph", "coeffs", k3_file, "--order", "4"])
    assert "scipy.sparse" in modules and "zetagraph.routes" in modules


def test_every_public_name_resolves_to_its_modules_object():
    assert zetagraph.__all__ == sorted(zetagraph.__all__)
    for name in zetagraph.__all__:
        module = sys.modules[getattr(zetagraph, name).__module__]
        assert getattr(zetagraph, name) is getattr(module, name), name
    assert set(zetagraph.__all__) <= set(dir(zetagraph))
    assert {"routes", "graph", "blas"} <= set(dir(zetagraph))
    assert zetagraph.routes is sys.modules["zetagraph.routes"]
    with pytest.raises(AttributeError, match="no_such_name"):
        zetagraph.no_such_name
