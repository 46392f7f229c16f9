"""Guard against code in src/ that only tests call, and options no one sets.

Every public module-level function and class of the library must be used
in the library's own code, outside its definition, or by the benchmark
harness in perfbench/, through a reference that resolves to its module.
Test-only helpers belong in tests/oracles.py. Every defaulted parameter
of a library function must be passed by some call in src/ or in the
perfbench/ harness, not by tests alone, with the few exceptions listed
in TEST_ONLY_PARAMETERS. The rule that places the region of interest above
the pepper is applied in one module, pipeline, and kd-trees and graph
components are used in one module, cloud. Every key of the shipped
config files is read by the library, and every key it reads is shipped;
the camera keys are spelled in one function, scenegen.scene_params, so the
benchmark camera is written in data/benchmark.cfg alone and a scene set's
camera in the config.cfg that made it. The pepper colour posterior is
computed at one call site, the one cut that the locate step and filter
step 3 share. Threads are started in one module, _rows, and no library
function takes a worker count. A missed scene's positives are a count, and
the score they stand for in a score dump, MISS_SCORE, is named in one
module, cli, next to the dump's writer and reader.
"""

import ast
from pathlib import Path

from peduncle.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "peduncle"

# called from outside the library: the console script and the fixed-seed
# C6 benchmark procedure
ENTRY_POINTS = {"cli.main", "workflows.run_benchmark"}


def module_references(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) pairs a file refers to through the package's modules:
    `<alias>.<name>` on an alias bound by `from peduncle import <module>`
    (or `from . import <module>`), and `from peduncle.<module> import
    <name>` (or `from .<module> import <name>`)."""
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif node.module == "peduncle" or (node.module or "").startswith("peduncle."):
            module = node.module.partition(".")[2] or None
        else:
            continue
        for a in node.names:
            if module is None:
                aliases[a.asname or a.name] = a.name
            else:
                refs.add((module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
    return refs


def bare_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Identifiers a tree uses as plain names, leaving out the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unused_definitions(src: Path, bench: Path) -> list[str]:
    """Public top-level functions and classes of the modules in src that
    nothing refers to: not another module or a file in bench through the
    module, and not their own module by bare name outside the definition.
    An attribute of the same name on some other object does not count."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    refs = set()
    for path in sorted(bench.glob("*.py")):
        refs |= module_references(ast.parse(path.read_text(), str(path)))
    for tree in trees.values():
        refs |= module_references(tree)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if f"{module}.{node.name}" in ENTRY_POINTS or (module, node.name) in refs:
                continue
            if node.name not in bare_names(tree, skip=node):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_definition_is_used_outside_tests():
    assert unused_definitions(SRC, ROOT / "perfbench") == []


def test_the_roi_rule_is_applied_in_pipeline_alone():
    """The pepper -> region of interest sequence is pipeline.locate_pepper:
    no other module of the library refers to compute_roi or pixel_bbox."""
    rule = {("pipeline", "compute_roi"), ("pipeline", "pixel_bbox")}
    callers = [path.stem for path in sorted(SRC.glob("*.py"))
               if module_references(ast.parse(path.read_text(), str(path))) & rule]
    assert callers == []


SPATIAL = ("scipy.spatial", "scipy.sparse.csgraph")


def spatial_imports(path: Path) -> list[str]:
    """Imports of scipy.spatial or scipy.sparse.csgraph (or of a name
    inside either) in a file, as `line: module`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {m}" for m in modules
                  if any(m == prefix or m.startswith(prefix + ".") for prefix in SPATIAL)]
    return found


def test_spatial_queries_and_graphs_live_in_cloud_alone():
    """kd-trees and connected components are cloud.py's: every other module
    of the library asks it for neighbours, pairs and clusters."""
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "cloud.py"
            for hit in spatial_imports(path)] == []
    assert spatial_imports(SRC / "cloud.py") != []


def call_sites(paths) -> dict[str, list[tuple[float, set[str], bool]]]:
    """Per called name (a plain name or an attribute), each call's number of
    positional arguments (infinite with a *args), keyword names and whether
    it passes **kwargs."""
    sites: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            positional = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                positional = float("inf")
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            spread = any(k.arg is None for k in node.keywords)
            sites.setdefault(name, []).append((positional, keywords, spread))
    return sites


def defaulted_parameters(module: str, tree: ast.AST):
    """(qualified function name, called name, parameter, positional index or
    None when keyword-only) for every defaulted parameter in tree. A
    method's index counts the arguments after self; __init__ is called by
    its class name."""

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                bound = cls_name is not None and not static
                called = cls_name if bound and child.name == "__init__" else child.name
                qualified = f"{module}.{cls_name + '.' if cls_name else ''}{child.name}"
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    yield qualified, called, positional[i].arg, i - bound
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield qualified, called, arg.arg, None
                yield from visit(child, None)
            else:
                yield from visit(child, cls_name)

    yield from visit(tree, None)


def never_passed(callers) -> list[str]:
    """Defaulted parameters of the library that no call in the files
    `callers` passes. Calls match by the called name alone, so a call of
    another function with the same name counts too."""
    sites = call_sites(sorted(callers))
    never = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, called, param, index in defaulted_parameters(path.stem, ast.parse(path.read_text())):
            if qualified in ENTRY_POINTS:
                continue
            if not any(
                param in keywords or spread or (index is not None and positional > index)
                for positional, keywords, spread in sites.get(called, [])
            ):
                never.append(f"{qualified}({param}=)")
    return never


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default no call overrides is a constant: make it one."""
    paths = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    assert never_passed(paths) == []


# Defaulted parameters that only tests pass, each with its reason.
TEST_ONLY_PARAMETERS = {
    # lets tests build multi-batch score grids at small sizes
    "minicnn.score_map(batch=)",
}


def test_every_defaulted_parameter_is_passed_outside_tests():
    """A knob that only tests turn belongs in tests/oracles.py or nowhere."""
    paths = [*SRC.glob("*.py"), *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    assert set(never_passed(paths)) == TEST_ONLY_PARAMETERS


def private_reads(path: Path) -> list[str]:
    """`<expr>._name` reads in a file, as `line: expr._name`, where <expr>
    is anything but `self` or `cls`; dunder names are not private."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        reads.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return reads


def test_no_module_reads_another_objects_private_attributes():
    """A private attribute is read only by its own object's methods: a
    caller that needs it gets it through the public interface."""
    assert [read for path in sorted(SRC.glob("*.py")) for read in private_reads(path)] == []


THREAD_MODULES = ("threading", "concurrent.futures")
WORKER_KNOBS = {"workers", "threads", "n_jobs"}


def thread_uses(path: Path) -> list[str]:
    """Imports of threading or concurrent.futures (or of a name inside
    either), reads of sched_getaffinity and parameters named like a worker
    count in a file, as `line: what`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names = [getattr(node, "attr", getattr(node, "id", None))]
        elif isinstance(node, ast.arg) and node.arg in WORKER_KNOBS:
            names = [f"parameter {node.arg}"]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name == "sched_getaffinity" or name.startswith("parameter ")
                  or any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)]
    return found


def test_threads_are_started_in_one_module_with_no_knob():
    """_rows alone starts threads and reads the CPU affinity mask, and no
    library function takes a worker or thread count: the library uses the
    CPUs it may run on, and nothing sets how many."""
    uses = [hit for path in sorted(SRC.glob("*.py")) for hit in thread_uses(path)]
    assert [hit for hit in uses if not hit.startswith("_rows.py:") or "parameter" in hit] == []
    assert uses != []


CONFIG_READERS = {"cfg_int", "cfg_float", "cfg_str"}


def config_keys_read(paths) -> set[str]:
    """Keys that cfg_int / cfg_float / cfg_str calls in the files read, each
    a string literal; a key computed at run time is reported as '<expr>'."""
    keys = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) not in CONFIG_READERS:
                continue
            key = node.args[1] if len(node.args) > 1 else None
            literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
            keys.add(key.value if literal else f"<{ast.unparse(node)}>")
    return keys


def test_every_config_key_is_read_and_every_read_key_shipped():
    """A shipped config key no command reads is a setting that does
    nothing; a key read but not in default.cfg fails every run without it."""
    read = config_keys_read(sorted(SRC.glob("*.py")))
    shipped = {name: set(parse_config((SRC / "data" / name).read_text())) for name in ("default.cfg", "benchmark.cfg")}
    assert {name: keys - read for name, keys in shipped.items()} == {"default.cfg": set(), "benchmark.cfg": set()}
    assert read - shipped["default.cfg"] == set()


CAMERA_KEYS = {"image_width", "image_height", "fx", "fy", "cx", "cy", "depth_scale", "pepper_center"}


def test_the_camera_keys_are_read_in_scenegen_alone():
    """scenegen.scene_params reads the camera keys; no other module reads
    one, and no code outside scene_params spells one as a string literal."""
    readers = [path.stem for path in sorted(SRC.glob("*.py")) if config_keys_read([path]) & CAMERA_KEYS]
    assert readers == ["scenegen"]
    spelled = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.stem == "scenegen":
            reader = next(node for node in tree.body if getattr(node, "name", None) == "scene_params")
            allowed = {id(node) for node in ast.walk(reader)}
        spelled += [f"{path.name}:{node.lineno}: {node.value}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in CAMERA_KEYS and id(node) not in allowed]
    assert spelled == []


def test_the_pepper_posterior_has_one_call_site():
    """The locate step and filter step 3 share one colour cut, so
    classifiers.nb_posterior is called in one place in the library."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "nb_posterior":
                calls.append(f"{path.name}:{node.lineno}")
    assert len(calls) == 1, calls


def test_the_miss_score_is_named_in_cli_alone():
    """A missed scene's positives reach the curves as a count
    (SceneEval.unscored_positives); MISS_SCORE is only how a score dump
    writes them, so no module but cli refers to it."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for field in ("id", "attr", "name"):     # Name, Attribute, an imported alias
                if getattr(node, field, None) == "MISS_SCORE":
                    names.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert names and {name.partition(":")[0] for name in names} == {"cli.py"}, names
