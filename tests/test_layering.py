"""The package's import layering, read from its sources with ``ast``: the
data layer does not import the model layer, ``nn`` imports no package
module, nothing outside numpy and the standard library is imported, and
past the data layer a split is read as its arrays, never video by video."""
import ast
import sys
from pathlib import Path

import riskrnn

SOURCES = {path.stem: path for path in Path(riskrnn.__file__).parent.glob("*.py")}
DATA_LAYER = {"data", "geometry", "synthworld", "tracking", "evaluation"}
MODEL_LAYER = {"autodiff", "nn", "model", "losses", "training", "pipeline"}


def imports(path) -> tuple[set, set]:
    """The package modules a source imports, and the top-level names of the
    other modules it imports."""
    own, other = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                own.add(node.module.split(".")[0])
            else:
                own.update(alias.name for alias in node.names)
            continue
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [])
        for name in names:
            top, _, rest = name.partition(".")
            if top == "riskrnn":
                own.add(rest.split(".")[0])
            else:
                other.add(top)
    return own, other


def test_every_module_is_read():
    assert DATA_LAYER | MODEL_LAYER <= set(SOURCES)


def test_the_data_layer_does_not_import_the_model_layer():
    crossings = {name: sorted(imports(SOURCES[name])[0] & MODEL_LAYER) for name in DATA_LAYER}
    assert crossings == {name: [] for name in DATA_LAYER}


def test_nn_imports_no_package_module():
    assert imports(SOURCES["nn"])[0] == set()


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    outside = {name: sorted(imports(path)[1] - allowed) for name, path in SOURCES.items()}
    assert outside == {name: [] for name in SOURCES}


def names(path) -> set:
    """Every name a source uses: its variables, attributes and imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_past_the_data_layer_no_module_names_the_per_video_view():
    readers = MODEL_LAYER | {"tracking", "cli"}
    naming = {name: "VideoSample" in names(SOURCES[name]) for name in readers}
    assert naming == {name: False for name in readers}
