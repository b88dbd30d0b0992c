import ast
import importlib
import re
from pathlib import Path

import framephase

import output_digest

MODULES = ("linalg", "frames", "magnitude", "injectivity", "reconstruct", "experiments")

# Public in their modules, but not part of the package's exports.
UNEXPORTED = {
    "linalg": ("LeastSquares", "rank", "null_space", "column_space", "least_squares"),
    "frames": ("encode_vector", "decode_vector"),
    "magnitude": ("MAGNITUDE_KEYS",),
    "experiments": ("M_RULES", "CSV_HEADER", "report_to_dict"),
}


# The only reads of a Tolerance field outside linalg.py, by (module,
# enclosing function): the Gram screen's theta, and the CLI flag defaults
# and the Tolerance built from them. Every other threshold comes from a
# Tolerance method.
TOLERANCE_FIELD_READS = {
    ("injectivity", "complement_property"),
    ("cli", "_add_tol_flags"),
    ("cli", "_tolerance"),
}


def _module(name: str):
    return importlib.import_module(f"framephase.{name}")


def test_no_name_is_in_two_module_lists():
    # A later star import in the package would silently shadow the first.
    owner = {}
    for name in MODULES:
        for public in _module(name).__all__:
            assert public not in owner, f"{public} is in {owner[public]} and {name}"
            owner[public] = name


def test_package_exports_each_module_name_once_as_the_same_object():
    exported = framephase.__all__
    assert len(set(exported)) == len(exported)
    owner = {public: name for name in MODULES for public in _module(name).__all__}
    assert set(exported) == set(owner) | {"__version__"}
    for public, name in owner.items():
        assert getattr(framephase, public) is getattr(_module(name), public), public
    # Beyond its exports the package binds only its submodules.
    public_attrs = {k for k in dir(framephase) if not k.startswith("_")}
    assert public_attrs - set(exported) <= set(MODULES) | {"cli"}


def test_unexported_names_stay_importable_from_their_modules():
    for name, names in UNEXPORTED.items():
        module = _module(name)
        for public in names:
            assert hasattr(module, public), f"{name}.{public}"
            assert public not in module.__all__
            assert public not in framephase.__all__


def test_output_digest_runs_on_a_prefix():
    # tests/output_digest.py hashes every output family; rerunning it on the
    # same tree must give the same digests.
    first = output_digest.digests(frames=20, trials=2)
    assert {name: count for name, (count, _) in first.items()} == {
        "certify": 60,
        "certify-tall": 3,
        "reconstruct": 20,
        "presets": 15,
    }
    assert output_digest.digests(frames=20, trials=2) == first


def _tolerance_field_reads(tree: ast.AST):
    """The enclosing function's name (or "<module>") of each read of an
    attribute named rank_eps or residual_eps."""
    stack = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in ("rank_eps", "residual_eps")
        ):
            yield func
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_thresholds_are_formed_in_tolerance_alone():
    # linalg.Tolerance holds every threshold rule; elsewhere its fields are
    # read only where TOLERANCE_FIELD_READS says.
    package = Path(framephase.__file__).parent
    stray = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        stray |= {(path.stem, func) for func in _tolerance_field_reads(tree)}
    assert stray - TOLERANCE_FIELD_READS == set()


def _names_read(tree: ast.AST):
    """Every name a module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_export_is_read_by_the_package_or_in_the_readme():
    # A public name that no module reads and the README never mentions
    # serves no caller of the package; tests keep such code in their oracles.
    package = Path(framephase.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        read.update(_names_read(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    orphans = [
        name
        for name in framephase.__all__
        if name != "__version__"
        and name not in read
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == []
