"""Every public function and class of so3sym has a user outside the tests.

A public name must be used in src/ outside its own definition (the re-export
list in __init__.py does not count), be used in benchmarks/, or be on
LIBRARY_API below with the reason it is kept. A test-only twin of the batched
code therefore fails here instead of coming back unnoticed.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import so3sym

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "so3sym"

# Public names nothing in src/ or benchmarks/ calls, kept as library API.
LIBRARY_API = {
    "so3.hamilton": "quaternion product, the convention quat_left/right_matrix encode",
    "so3.quat_conj": "quaternion inverse, the other half of that convention",
    "so3.rot_to_quat": "matrix -> canonical quaternion, the inverse of quat_to_rot",
    "so3.log_map": "axis-angle of a rotation, the inverse of exp_map",
    "so3.random_quats": "uniform rotations on S^3",
    "symrep.smooth_section": "smoothness claim: the smooth global right-inverse q -> I - q q^T",
    "bingham.log_density_unnorm": "belief claim: the Bingham density an A encodes",
    "wahba.write_correspondences_csv": "writes the file format the wahba command reads",
    "nn.last_layer_decompose": "the last linear layer as a sum of symmetric-matrix bases",
}


def public_names():
    """{"module.name"} of every public function and class an so3sym module defines."""
    names = set()
    for info in pkgutil.iter_modules(so3sym.__path__):
        mod = importlib.import_module(f"so3sym.{info.name}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == mod.__name__):
                names.add(f"{info.name}.{name}")
    return names


def _used(tree):
    """{top-level statement: identifiers its code reads}: names and attribute names."""
    return {node: {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))}
            for node in tree.body}


def used_names():
    """Identifiers used in src/ outside the definition that binds them, and in benchmarks/."""
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node, names in _used(ast.parse(path.read_text())).items():
            own = getattr(node, "name", None)
            used |= names - {own}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for names in _used(ast.parse(path.read_text())).values():
            used |= names
    return used


def test_every_public_name_has_a_user_or_a_reason():
    used = used_names()
    unused = sorted(n for n in public_names() - set(LIBRARY_API) if n.split(".")[1] not in used)
    assert unused == [], f"public names only tests use; delete them or add them to LIBRARY_API: {unused}"


def test_library_api_entries_are_public_and_otherwise_unused():
    used = used_names()
    stale = sorted(n for n in LIBRARY_API if n not in public_names() or n.split(".")[1] in used)
    assert stale == [], f"LIBRARY_API entries that are gone or now have a user: {stale}"
