"""Static checks over the source and test trees.

No linter is a dependency, so these checks are AST scans here, where the
fast `-m "not acceptance"` loop runs them.
"""

import ast
from pathlib import Path

from gridsentry.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    # package __init__ modules import names to re-export them
    paths = sorted(path for tree in ("src", "tests")
                   for path in (ROOT / tree).rglob("*.py")
                   if path.name != "__init__.py")
    assert paths
    unused = {str(path.relative_to(ROOT)): names for path in paths
              if (names := unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_src_does_not_import_scipy():
    # scipy is a test dependency (pyproject's `test` extra); the package
    # runs on numpy's LAPACK alone
    sites = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert sites == []


# numpy functions whose call imports numpy.ma, each checked on 1-D float64
# input in a fresh interpreter on numpy 2.4.6 (np.isin, np.sort, np.mean
# and np.unique_counts do not)
LOADS_NUMPY_MA = {"median", "nanmedian", "percentile", "nanpercentile",
                  "quantile", "nanquantile", "unique", "unique_values",
                  "intersect1d", "setdiff1d", "setxor1d", "union1d"}


def numpy_ma_loaders(tree: ast.Module) -> list[str]:
    """The np.<name> references in tree to a LOADS_NUMPY_MA function."""
    return [f"{node.lineno} np.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in LOADS_NUMPY_MA
            and getattr(node.value, "id", None) == "np"]


def test_src_calls_no_numpy_function_that_loads_numpy_ma():
    # numpy.ma costs a CLI process over a megabyte resident and no stage
    # needs it; test_cli.py's test_detector_stages_leave_out_numpy_ma runs
    # the stages, this scan names the call site
    sites = [f"{path.relative_to(ROOT)}:{site}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for site in numpy_ma_loaders(ast.parse(path.read_text()))]
    assert sites == []
    # the scan finds the quartiles holdout once took from numpy
    assert numpy_ma_loaders(ast.parse(
        "acc = np.array(accuracies)\n"
        "q1, q3 = np.percentile(acc, [25, 75])")) == ["2 np.percentile"]


# the names through which os reads the process environment
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module) -> list[str]:
    """The sites in tree that reach the process environment: an os.environ
    or os.getenv attribute, or an import of one of them from os."""
    sites = [f"{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ENVIRONMENT_READERS]
    sites += [f"{node.lineno} from os import {alias.name}"
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in ENVIRONMENT_READERS]
    return sites


def test_src_reads_no_environment_variable():
    # a run's inputs are its config and its command line: no variable of
    # the process environment changes what a stage reads or writes
    sites = [f"{path.relative_to(ROOT)}:{site}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for site in environment_reads(ast.parse(path.read_text()))]
    assert sites == []
    # the scan finds the output root that relative paths were once
    # resolved under, and an imported getenv
    assert environment_reads(ast.parse(
        "root = os.environ.get(OUTPUT_ROOT_ENV)\n"
        "from os import getenv")) == ["1 os.environ",
                                      "2 from os import getenv"]


def src_modules() -> dict[str, ast.Module]:
    """The parsed src/ modules but package __init__ files, by path; an
    __init__ only re-exports names, which does not count as reading them."""
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "__init__.py"}
    assert trees
    return trees


def names_read(trees) -> set[str]:
    """Every name the modules load, bare or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_no_test_only_public_names():
    # a public function or class that no code in src/ reads is there only
    # for its tests; such oracles live in tests/oracles.py
    trees = src_modules()
    read = names_read(trees.values())
    unread = sorted(f"{path}:{node.name}" for path, tree in trees.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in read)
    assert unread == []


def module_constants(tree: ast.Module) -> list[str]:
    """The UPPER_CASE names the module assigns at its top level."""
    names = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names += [target.id for target in targets
                  if isinstance(target, ast.Name) and target.id.isupper()]
    return names


def test_every_module_constant_is_read():
    # an UPPER_CASE module constant that no src/ code reads, outside its
    # own assignment, is a setting that nothing acts on: the rule that
    # read it is gone
    trees = src_modules()
    read = names_read(trees.values())
    constants = [(path, name) for path, tree in trees.items()
                 for name in module_constants(tree)]
    assert len(constants) >= 40  # 56 today: the scan sees them
    assert sorted(f"{path}:{name}" for path, name in constants
                  if name not in read) == []


def test_every_config_field_is_read():
    # a RunConfig field that only load_config reads is a key the config
    # accepts and validates but nothing acts on
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        stack = [ast.parse(path.read_text())]
        while stack:
            node = stack.pop()
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "load_config"):
                continue
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    assert sorted(set(RunConfig.__dataclass_fields__) - read) == []


# defaulted parameters that no src/ call passes, each kept on purpose: the
# console entry point reads sys.argv, and tests pass argv. A setting only
# tests vary is a module constant that those tests patch
UNPASSED_DEFAULTS_KEPT = {("main", "argv")}


def parameters(tree: ast.Module):
    """(callable name, parameter, positional index or None, defaulted) per
    parameter of a function but *args and **kwargs; an __init__ is called
    through its class name and a method's index does not count self or
    cls."""
    owners = {id(item): node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name = node.name
        if name == "__init__":
            name = owners[id(node)]
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
        first = len(positional) - len(args.defaults)
        for i in range(skip, len(positional)):
            yield name, positional[i], i - skip, i >= first
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            yield name, arg.arg, None, default is not None


def argument(call: ast.Call, param: str, index):
    """The expression a call hands `param`, by keyword or by position; an
    ast.Starred if only a *args or **kwargs may hand it one, else None."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    for i, arg in enumerate(call.args if index is not None else []):
        if isinstance(arg, ast.Starred) or i == index:
            return arg
    if any(k.arg is None for k in call.keywords):
        return ast.Starred()
    return None


def src_calls(trees) -> dict[str, list[ast.Call]]:
    """The calls in the modules, by the called name; calls match functions
    by name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_overridden_in_src():
    # a default that no src/ call overrides is a setting only tests vary:
    # it belongs in a module constant
    trees = src_modules().values()
    calls = src_calls(trees)
    unpassed = sorted(
        (name, param) for tree in trees
        for name, param, index, defaulted in parameters(tree)
        if defaulted and all(argument(call, param, index) is None
                             for call in calls.get(name, [])))
    assert unpassed == sorted(UNPASSED_DEFAULTS_KEPT)


def constant_name(arg) -> str | None:
    """The name arg reads, bare or as an attribute, also through a
    constant key, as STAGE_DEFAULTS["classifier"] reads STAGE_DEFAULTS;
    None for any other expression."""
    if isinstance(arg, ast.Subscript) and isinstance(arg.slice, ast.Constant):
        arg = arg.value
    return (arg.id if isinstance(arg, ast.Name)
            else arg.attr if isinstance(arg, ast.Attribute) else None)


def constant_arguments(trees) -> list[tuple[str, str, str]]:
    """(callable, parameter, constant) per required parameter that every
    call in the modules fills with the one module constant, by name, as
    an attribute or through a constant key."""
    constants = {name for tree in trees for name in module_constants(tree)}
    calls = src_calls(trees)
    found = []
    for tree in trees:
        for name, param, index, defaulted in parameters(tree):
            passed = {ast.unparse(arg) if constant_name(arg) in constants
                      else None
                      for arg in (argument(call, param, index)
                                  for call in calls.get(name, []))}
            if (not defaulted and len(passed) == 1
                    and (constant := passed.pop()) is not None):
                found.append((name, param, constant))
    return sorted(found)


# required parameters that every src/ call fills with one module constant,
# each kept on purpose: the neural library's layers take their widths from
# the detector, which builds one LSTM, and tests build others
FIXED_ARGUMENTS_KEPT = [("LSTM", "hidden", "PREDICTOR_HIDDEN")]


def test_no_required_parameter_is_a_fixed_constant():
    # a required parameter that every src/ call fills with the same module
    # constant is that constant under another name: the function reads it
    assert constant_arguments(src_modules().values()) == FIXED_ARGUMENTS_KEPT
    # the scan finds the household range the load synthesis once took
    assert constant_arguments([ast.parse(
        "HOUSEHOLDS_PER_BUS = (90, 110)\n"
        "def synthesize_loads(households, horizon, rng): pass\n"
        "demand = synthesize_loads(HOUSEHOLDS_PER_BUS, cfg.horizon, rng)"
    )]) == [("synthesize_loads", "households", "HOUSEHOLDS_PER_BUS")]
    # and a fit's settings, once passed in as one row of the stage table
    assert constant_arguments([ast.parse(
        "STAGE_DEFAULTS = {'classifier': TrainConfig(2e-3, 80, 256)}\n"
        "def fit_classifier(features, labels, config, seed): pass\n"
        "fit_classifier(x, y, STAGE_DEFAULTS['classifier'], seed + 2)"
    )]) == [("fit_classifier", "config", "STAGE_DEFAULTS['classifier']")]


POWERFLOW = "src/gridsentry/grid/powerflow.py"


def walk_with_function(source: Path | str):
    """(node, name of the innermost enclosing function or None) for every
    AST node of the file at the path `source`, or of the code `source`."""
    text = source.read_text() if isinstance(source, Path) else source
    stack = [(ast.parse(text), None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, ast.FunctionDef):
            func = node.name
        yield node, func
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def test_one_home_for_the_grid_physics():
    # the complex power V[anchor] * conj(M @ V) is spelled once, with its
    # derivatives beside it, and a branch's series admittance 1 / (r + jx)
    # is computed in one place, where Topology builds the branch rows
    conj_sites, admittance_sites = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node, func in walk_with_function(path):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("conj", "conjugate")):
                conj_sites.append((rel, func, node.lineno))
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and isinstance(node.right, ast.Call)
                    and getattr(node.right.func, "id", None) == "complex"):
                admittance_sites.append(f"{rel}:{node.lineno}")
    homes = {(POWERFLOW, "complex_power"), (POWERFLOW, "power_derivatives")}
    stray = sorted(f"{rel}:{line}" for rel, func, line in conj_sites
                   if (rel, func) not in homes)
    assert (stray, len(admittance_sites)) == ([], 1), (stray,
                                                       admittance_sites)
    assert {(rel, func) for rel, func, _ in conj_sites} == homes


def test_one_home_for_each_network_architecture():
    # the detector builds its layers in _mlp and the build_* functions
    # only, so fitting a model and loading it from a bundle cannot spell
    # one architecture two ways
    sites = []
    for path in sorted((ROOT / "src/gridsentry/detector").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node, func in walk_with_function(path):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("Dense", "LSTM")
                    and func != "_mlp"
                    and not (func or "").startswith("build_")):
                sites.append(f"{rel}:{node.lineno} in {func}")
    assert sites == []


def is_metadata(node) -> bool:
    """A series' sidecar dict: `<x>.metadata`, or a name `metadata`/`meta`."""
    return (getattr(node, "attr", None) == "metadata"
            or getattr(node, "id", None) in ("metadata", "meta"))


def test_one_home_for_series_annotations():
    # a frame's label and a series' level come from the series' job in
    # cli.load_dataset: no module reads a label or a level out of a
    # sidecar's level or window
    sites = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and is_metadata(node.value):
                key = node.slice
            elif (isinstance(node, ast.Call) and node.args
                  and getattr(node.func, "attr", None) == "get"
                  and is_metadata(node.func.value)):
                key = node.args[0]
            else:
                continue
            if getattr(key, "value", None) in ("level", "window"):
                sites.append(f"{rel}:{node.lineno}")
    assert sites == []


def sidecar_sites(source: Path | str) -> list[str | None]:
    """The enclosing function of each string in `source` (walk_with_function)
    that spells a series sidecar's suffix, .meta.json."""
    return [func for node, func in walk_with_function(source)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".meta.json" in node.value]


def test_only_save_names_a_sidecar():
    # a series' per-hour status lists are its row of the dataset's status
    # array, which ScenarioSeries.save writes beside the values array; no
    # module writes or reads a per-series .meta.json sidecar
    sites = {(str(path.relative_to(ROOT)), func)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for func in sidecar_sites(path)}
    assert sites == set()
    # the scan finds the sidecar read that load_dataset once made
    assert sidecar_sites(
        "def load_dataset(cfg, data_dir, part):\n"
        "    path = (data_dir / name).with_suffix('.meta.json')\n"
        "    sidecars.append(read_json_object(path))\n") == ["load_dataset"]


# (module, function) of each read of a series' frames: save writes them
# to the values array, and the dataset reader reads the part's rows back
FRAME_READERS = {("src/gridsentry/scenario/generate.py", "save"),
                 ("src/gridsentry/cli.py", "load_dataset")}


def frame_reads(path: Path) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each read of a series' sensor frames:
    a call of ScenarioSeries.load, which returns a values file's frames,
    or a read of a `.values` attribute other than as a method call, so
    `vars(x).values()` does not count."""
    nodes = list(walk_with_function(path))
    called = {id(node.func) for node, _ in nodes if isinstance(node, ast.Call)}
    return [(node.lineno, func) for node, func in nodes
            if (isinstance(node, ast.Attribute) and node.attr == "values"
                and isinstance(node.ctx, ast.Load) and id(node) not in called)
            or (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "load"
                and getattr(node.func.value, "id", None) == "ScenarioSeries")]


def test_one_reader_of_sensor_frames():
    # a series' sensor frames are read where save writes them and in the
    # dataset reader, which stacks the part a stage uses; every stage
    # works on that stack
    sites = [f"{path.relative_to(ROOT)}:{line} in {func}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, func in frame_reads(path)
             if (str(path.relative_to(ROOT)), func) not in FRAME_READERS]
    assert sites == []


def test_one_stacker_of_sensor_frames():
    # cli.load_dataset is where series become frames: it fills the
    # (frames, labels, levels) stack of the part a stage uses once, and
    # every function below it takes the stack
    reads = frame_reads(ROOT / "src/gridsentry/cli.py")
    assert any(func == "load_dataset" for _, func in reads)
    assert [f"src/gridsentry/cli.py:{line} in {func}"
            for line, func in reads if func != "load_dataset"] == []


def numpy_root(node) -> bool:
    """Whether an attribute chain starts at the name np (np.load,
    np.lib.format.read_array)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return getattr(node, "id", None) == "np"


# the .npy I/O of a dataset's arrays: numpy's format functions, an array's
# tofile and a file's readinto
ARRAY_IO = {"read_array", "write_array", "read_magic",
            "read_array_header_1_0", "read_array_header_2_0",
            "write_array_header_1_0", "write_array_header_2_0",
            "open_memmap", "load", "save", "loadtxt", "genfromtxt",
            "fromfile", "frombuffer"}
ARRAY_METHOD_IO = {"tofile", "readinto"}


def test_one_reader_of_series_files():
    # a dataset's values file is parsed by ScenarioSeries.load, and load is
    # called only by the dataset reader, which parses the rows a stage uses
    # after the dataset's config.json is read and checked. The values and
    # the status are .npy arrays that only save writes, and only load
    # reads, row by row; no module parses text arrays, and np.load reads
    # only bundles, in load_bundle
    sites, array_io = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node, func in walk_with_function(path):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", None)
            if (name == "load"
                    and getattr(node.func.value, "id", None)
                    == "ScenarioSeries"):
                sites.add((rel, func))
            if ((name in ARRAY_IO and numpy_root(node.func))
                    or name in ARRAY_METHOD_IO):
                array_io.add((rel, func, name))
    assert sites == {("src/gridsentry/cli.py", "load_dataset")}
    generate = "src/gridsentry/scenario/generate.py"
    assert array_io == {
        (generate, "save", "write_array_header_1_0"),
        (generate, "save", "tofile"), (generate, "save", "write_array"),
        (generate, "load", "read_magic"),
        (generate, "load", "read_array_header_1_0"),
        (generate, "load", "readinto"),
        ("src/gridsentry/detector/models.py", "load_bundle", "load")}


def test_one_list_of_a_datasets_files():
    # a dataset is the config.json, values array and status array its
    # config's gen-data writes, a row of each array per job: the job list
    # is spelled once, read by gen-data and by the dataset reader, and no
    # module lists a directory to find the files a stage reads
    jobs, listings = set(), []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node, func in walk_with_function(path):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "_series_jobs":
                jobs.add((rel, func))
            elif name in ("glob", "rglob", "iterdir"):
                listings.append(f"{rel}:{node.lineno}")
    assert jobs == {("src/gridsentry/cli.py", "cmd_gen_data"),
                    ("src/gridsentry/cli.py", "load_dataset")}
    assert listings == []


def test_neural_library_names_no_fixed_dtype():
    # the library is dtype-preserving: an array it makes takes the dtype
    # of what it comes from, so np.zeros/np.empty/np.ones need a dtype (or
    # their *_like form), and float is never spelled as a dtype; each of
    # these once turned a float32 step back into float64
    sites = []
    for path in sorted((ROOT / "src/gridsentry/neural").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            keywords = {k.arg: k.value for k in node.keywords}
            if (isinstance(func, ast.Attribute)
                    and getattr(func.value, "id", None) == "np"
                    and func.attr in ("zeros", "empty", "ones")
                    and "dtype" not in keywords):
                sites.append(f"{rel}:{node.lineno} np.{func.attr}")
            if (isinstance(func, ast.Attribute) and func.attr == "astype"
                    and any(getattr(a, "id", None) == "float"
                            for a in node.args)):
                sites.append(f"{rel}:{node.lineno} astype(float)")
            if getattr(keywords.get("dtype"), "id", None) == "float":
                sites.append(f"{rel}:{node.lineno} dtype=float")
    assert sites == []


def attribute_writes(path: Path) -> list[str]:
    """`self.<attr>` assignments outside __init__ in the file at `path`."""
    sites = []
    for node, func in walk_with_function(path):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif (isinstance(target, ast.Attribute) and func != "__init__"
                  and getattr(target.value, "id", None) == "self"):
                sites.append(f"{path.name}:{node.lineno} self.{target.attr}"
                             f" in {func}")
    return sites


def test_adam_allocates_in_init():
    # Adam makes its moments and scratch vectors in __init__, from the flat
    # parameter vector; a step only counts itself
    optim = ROOT / "src/gridsentry/neural/optim.py"
    writes = attribute_writes(optim)
    assert [site.split(" ", 1)[1] for site in writes] == ["self.t in step"]


def test_layers_keep_no_state_between_calls(tmp_path):
    # a layer holds parameters and gradients only: forward returns its
    # cache and backward takes it, so no call leaves an array in the layer
    # and forwards on one model may interleave
    layers = ROOT / "src/gridsentry/neural/layers.py"
    assert attribute_writes(layers) == []
    # the scan finds the attribute cache the layers once kept
    text = layers.read_text()
    anchor = "        y = x @ self.params[\"W\"]\n"
    assert text.count(anchor) == 1
    cached = tmp_path / "layers.py"
    cached.write_text(text.replace(anchor, "        self._x = x\n" + anchor))
    assert attribute_writes(cached) == [
        f"layers.py:{text[:text.index(anchor)].count(chr(10)) + 1}"
        " self._x in forward"]


# errors that are the program's own faults, not refusals of a run's input:
# they keep their traceback
INTERNAL_FAULTS = {"RankDeficientError", "NumericalError",
                   "InfeasibleDispatchError"}


def test_every_error_is_a_refusal_or_a_named_fault():
    # every check of a run's input raises an InputError, defined once and
    # never subclassed, and cli.main catches it (and a path that is missing
    # or of the wrong kind); any other error class is a named internal fault
    bases = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Error"):
                assert node.name not in bases, f"{node.name} defined twice"
                bases[node.name] = [getattr(base, "id", None)
                                    for base in node.bases]

    def refusal(name):
        return name == "InputError" or any(map(refusal, bases.get(name, [])))

    assert bases["InputError"] == ["ValueError"]
    assert {name for name in bases if refusal(name)} == {"InputError"}
    assert {name for name in bases if not refusal(name)} == INTERNAL_FAULTS
    cli = ast.parse((ROOT / "src/gridsentry/cli.py").read_text())
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert [ast.unparse(node.type) for node in ast.walk(main)
            if isinstance(node, ast.ExceptHandler)] == [
                "(InputError, FileNotFoundError, IsADirectoryError, "
                "NotADirectoryError)"]


# restated, with the reason, by a change that moves it: 324 -> 315 as the
# detector took no grid case and bundles lost the sensor-map hash: the case
# of load_bundle, train_bundle, feature_rows, evaluate_predictions and
# predict_and_residual, ModelBundle.sensor_hash, sensor_map_csv's and
# sensor_map_hash's case, and GridCase.base_power are gone; 315 -> 319 as
# SE_DNN's linearized fit took its home in grid.estimation:
# linearized_predictions' case, anchor, values and variances; 319 -> 310 as
# the program's one AC fit became plain Gauss-Newton and its Newton phase
# left for tests/oracles.py: power_hessian's M, anchor, V and lam, and
# _newton_step's topo, V, Wr, gain and grad
SETTABLE_VALUES = 310


def settable_values(tree: ast.Module) -> int:
    """The values a caller can set in tree: each parameter of each def and
    lambda but self and cls, *args and **kwargs included, and each
    annotated field of a @dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            count += sum(p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def test_settable_values():
    # the settable values over src/ are a measure of the package's surface:
    # a change that moves the count restates the pin, and says why
    assert sum(settable_values(ast.parse(path.read_text()))
               for path in (ROOT / "src").rglob("*.py")) == SETTABLE_VALUES
