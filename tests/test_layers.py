"""The package loads a layer only when it is used: `import zetagraph` loads
none, and `stats` and `primes` run on the graph layer without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetagraph
from zetagraph import fixtures
from zetagraph.graph import serialize_graph

ENV = {**os.environ, "PYTHONPATH": str(Path(zetagraph.__file__).parents[1])}


def imported(args: list[str]) -> set[str]:
    """The modules a fresh interpreter running args imports, read from
    -X importtime, which names each one as it is first imported."""
    r = subprocess.run([sys.executable, "-X", "importtime", *args], env=ENV,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    return {line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines()
            if line.startswith("import time:") and "|" in line} - {"imported package"}


def scipy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


@pytest.fixture(scope="module")
def k3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("layers") / "k3.json"
    path.write_text(serialize_graph(fixtures.catalogue()["k3"]) + "\n")
    return str(path)


def test_importing_the_package_loads_no_layer():
    modules = imported(["-c", "import zetagraph"])
    assert "zetagraph" in modules
    assert {m for m in modules if m.startswith("zetagraph.")} == set()
    assert scipy_modules(modules) == set()


@pytest.mark.parametrize("argv", (["stats"], ["primes", "--max-len", "6"]))
def test_graph_layer_commands_load_no_scipy(k3_file, argv):
    modules = imported(["-m", "zetagraph", argv[0], k3_file, *argv[1:]])
    assert "zetagraph.graph" in modules and "zetagraph.cli" in modules
    assert scipy_modules(modules) == set()
    assert "zetagraph.operators" not in modules and "zetagraph.routes" not in modules


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
