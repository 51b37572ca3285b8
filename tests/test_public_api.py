"""Structure guards: public names, optional parameters and shared private names.

A public name must be used in src/ outside its own definition (the re-export
list in __init__.py does not count), be used in benchmarks/, or be on
LIBRARY_API below with the reason it is kept. A test-only twin of the batched
code therefore fails here instead of coming back unnoticed. The same holds for
each public method, property or classmethod written in a public class: its
name must be read as an attribute in src/ outside its own definition, or in
benchmarks/.

Every parameter with a default on a public function is on SET_DEFAULTS with
who sets it, and every private name one so3sym module imports from another is
on SHARED_PRIVATE, so a knob nobody turns or a leaked helper is a visible edit.
"""

import ast
import collections
import importlib
import inspect
import pkgutil
from pathlib import Path

import so3sym

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "so3sym"

# Public names nothing in src/ or benchmarks/ calls, kept as library API.
LIBRARY_API = {
    "so3.quat_conj": "quaternion inverse, the other half of that convention",
    "so3.exp_map": "rotation of an axis-angle vector, the inverse of log_map",
    "so3.log_map": "axis-angle of a rotation, the inverse of exp_map",
    "so3.random_quats": "uniform rotations on S^3",
    "symrep.smooth_section": "smoothness claim: the smooth global right-inverse q -> I - q q^T",
    "bingham.log_density_unnorm": "belief claim: the Bingham density an A encodes",
    "wahba.write_correspondences_csv": "writes the file format the wahba command reads",
    "nn.last_layer_decompose": "the last linear layer as a sum of symmetric-matrix bases",
}


# Parameters with a default on a public function or method, and who sets them.
SET_DEFAULTS = {
    "averaging.inertia_matrix.weights": "averaging.chordal_mean passes its weights",
    "averaging.chordal_mean.weights": "cli avg passes the CSV's weight column",
    "cli.run_grad_check.count": "cli grad-check --count; benchmarks/run.py",
    "cli.run_grad_check.seed": "cli --seed; benchmarks/run.py",
    "cli.run_grad_check.tolerance": "cli grad-check --tolerance",
    "cli.run_grad_check.self_test": "cli grad-check --self-test; benchmarks/test_smoke.py",
    "cli.main.argv": "benchmarks/run.py and cliprobe.py pass argument lists; entry() passes none",
    "nn.sample_batch.corruption": "nn.dt_evaluate's corrupted block; benchmarks/run.py",
    "nn.train_single.trial": "nn.train_experiment runs each trial",
    "nn.dt_evaluate.n_reference": "benchmarks/run.py scores with its own reference size",
    "symrep.qcqp_forward.gap_tol": "cli.run_grad_check filters at GRAD_CHECK_MIN_REL_GAP; the gate is DEFAULT_GAP_TOL",
    "symrep.qcqp_forward.decomp": "symrep.qcqp_jacobian_theta passes the decomposition it is given",
    "symrep.qcqp_jacobian_theta.decomp": "cli.run_grad_check passes its filter's decompositions",
}

# Private names one so3sym module imports from another: "from -> to, ...: why they are shared".
SHARED_PRIVATE = {
    "_dispersion_trace": "symrep -> bingham: the one dispersion-trace formula",
    "_lapack_input": "symrep -> bingham: the symmetry check eigvalsh needs too",
    "_norm": "so3 -> symrep: the one overflow-safe norm, which the eigengap gate measures ||A||_F with",
    "_quantile": "bingham -> nn, svgplot: np.quantile bit for bit, without importing numpy.ma",
    "_read_csv_table": "wahba -> cli: the one reader of both CSV formats",
    "_unit": "so3 -> averaging, nn, wahba: the one unit-vector rule and its 1e-9 floor",
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


def public_methods():
    """{"module.Class.name"} of every public function, property, classmethod or staticmethod
    written in a public so3sym class (not one a dataclass generates)."""
    found = set()
    for name in public_names():
        mod, attr = name.split(".")
        obj = getattr(importlib.import_module(f"so3sym.{mod}"), attr)
        if not inspect.isclass(obj):
            continue
        for key, v in vars(obj).items():
            fn = v.fget if isinstance(v, property) else getattr(v, "__func__", v)
            if (not key.startswith("_") and inspect.isfunction(fn)
                    and fn.__code__.co_filename == str(SRC / f"{mod}.py")):
                found.add(f"{name}.{key}")
    return found


def _attributes(node):
    return collections.Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unread_methods():
    """public_methods() whose name no attribute in src/ reads outside the method's own
    definition (the re-export list in __init__.py does not count), and none in benchmarks/."""
    reads, own = collections.Counter(), {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads += _attributes(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                own |= {f"{path.stem}.{cls.name}.{fn.name}": _attributes(fn) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef)}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        reads += _attributes(ast.parse(path.read_text()))
    attr = {m: m.split(".")[2] for m in public_methods()}
    return sorted(m for m, a in attr.items() if reads[a] == own[m][a])


def test_every_public_method_has_a_reader_or_a_reason():
    # one of each kind the walk must find: a method, a property and a classmethod
    assert {"nn.DenseNet.params", "bingham.BinghamBelief.mode", "wahba.InputError.at"} <= public_methods()
    unread = [m for m in unread_methods() if m not in LIBRARY_API]
    assert unread == [], f"public methods nothing in src/ or benchmarks/ reads; delete them: {unread}"


def defaulted_parameters():
    """{"module.function.param"} of every parameter with a default on a public function, or on
    a method written in a public class (not one a dataclass generates)."""
    found = set()
    for name in public_names():
        mod, attr = name.split(".")
        obj = getattr(importlib.import_module(f"so3sym.{mod}"), attr)
        funcs = {attr: obj} if inspect.isfunction(obj) else {
            f"{attr}.{k}": v for k, v in vars(obj).items() if inspect.isfunction(v)}
        for qual, fn in funcs.items():
            if inspect.unwrap(fn).__code__.co_filename != str(SRC / f"{mod}.py"):
                continue
            found |= {f"{mod}.{qual}.{p.name}" for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    return found


def test_every_default_is_set_by_someone():
    found = defaulted_parameters()
    assert sorted(found - set(SET_DEFAULTS)) == [], (
        "parameters with a default that no SET_DEFAULTS entry names; make each a constant "
        "unless a caller sets it, and say who")
    assert sorted(set(SET_DEFAULTS) - found) == [], "SET_DEFAULTS entries that are gone"


def test_private_names_shared_across_modules_are_listed():
    shared = collections.defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if a.name.startswith("_"):
                        shared[a.name].add(f"{node.module} -> {path.stem}")
    listed = {}
    for name, why in SHARED_PRIVATE.items():
        source, targets = why.split(":")[0].split(" -> ")
        listed[name] = {f"{source} -> {t}" for t in targets.split(", ")}
    assert dict(shared) == listed, (
        "private names imported across so3sym modules, or their modules, differ from SHARED_PRIVATE")
