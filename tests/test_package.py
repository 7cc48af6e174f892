"""The package namespace: one export table, resolved on first use."""

import ast
import importlib
import inspect
import pathlib
import typing

import pytest

import rdtoolkit

from conftest import run_child

PUBLIC = [
    "BalanceRecord", "BandwidthSelection", "Bernoulli", "BinomialRecord",
    "CoverageResult", "CutoffEstimate", "DensityRecord", "DgpSpec",
    "DonutRecord", "FisherCi", "FisherResult", "FixedMargins",
    "LocRandEstimate", "LocalFit", "NeymanResult", "OracleBandwidth",
    "PlaceboRecord", "PlotBin", "PowerResult", "RbcResult", "RdEstimate",
    "RdPlotData", "RdSample", "SensitivityRecord", "ValidationReport",
    "Window", "WindowSelection", "__version__",
    "bandwidth_sensitivity", "binomial_test", "build_rdplot",
    "canonical_json", "covariate_balance", "curved_benchmark", "density_test",
    "diff_in_means", "donut_hole", "fisher_ci", "fisher_pvalue",
    "fuzzy_estimate", "fuzzy_locrand", "ingest_csv", "kernel_constants",
    "kernel_weight", "kink_estimate", "linear_dgp", "make_report",
    "make_window", "mde", "mse_constant", "neyman_ci",
    "oracle_mse_bandwidth", "piecewise_balance_dgp", "placebo_cutoffs",
    "power_at", "power_curve", "rbc_inference", "render_svg", "required_n",
    "run_battery", "select_mse_bandwidth", "select_window", "sha256_file",
    "sharp_estimate", "simulate_coverage", "simulate_sample", "step_dgp",
    "substream", "write_report",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 69
    assert sorted(rdtoolkit.__all__) == PUBLIC
    listed = [name for names in rdtoolkit._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed)) == 68


@pytest.mark.parametrize("module", sorted(rdtoolkit._EXPORTS))
def test_names_resolve_to_their_home(module):
    home = importlib.import_module(f"rdtoolkit.{module}")
    for name in rdtoolkit._EXPORTS[module]:
        value = getattr(rdtoolkit, name)
        assert value is getattr(home, name)
        assert value.__module__ == home.__name__


def test_import_loads_no_submodule():
    proc = run_child(["-c", "import sys, rdtoolkit; print(sorted(m for m in "
                      "sys.modules if m.startswith('rdtoolkit.')))"])
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_star_import_binds_all():
    namespace = {}
    exec("from rdtoolkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert set(PUBLIC) <= set(dir(rdtoolkit))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        rdtoolkit.no_such_name
    assert not hasattr(rdtoolkit, "cutoff_estimate")


def test_no_module_imports_from_the_package_root():
    # a lazy name read while its own module is still loading would
    # re-enter that module's import; only the literal __version__ is safe
    for path in pathlib.Path(rdtoolkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module is None)
                    or (node.level == 0 and node.module == "rdtoolkit")):
                names = {alias.name for alias in node.names}
                assert names == {"__version__"}, (path.name, names)


def test_powersim_loads_no_monte_carlo_stack_at_import():
    # power math needs none of the sampling, fitting or threading
    # modules; the Monte Carlo engine lives in dgps, and defaults
    # imports nothing
    path = pathlib.Path(rdtoolkit.__file__).parent / "powersim.py"
    relative = {node.module for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert relative == {"defaults", "errors"}


def test_no_function_outside_the_cli_imports_numpy_or_the_package():
    # a module loads what it runs when it loads; only the CLI's
    # subcommands defer their imports, so that a call loads what it runs
    for path in pathlib.Path(rdtoolkit.__file__).parent.glob("*.py"):
        if path.name == "cli.py":
            continue
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    modules = {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    modules = {"rdtoolkit" if node.level else node.module}
                else:
                    continue
                assert not {m.split(".")[0] for m in modules} \
                    & {"numpy", "rdtoolkit"}, (path.name, node.lineno)


def test_public_annotations_resolve():
    # every name an annotation uses is bound in its module
    failed = []
    for name in rdtoolkit.__all__:
        value = getattr(rdtoolkit, name)
        if callable(value):
            try:
                typing.get_type_hints(value)
            except NameError as exc:
                failed.append((name, str(exc)))
    assert failed == []


def _module_level_imports(tree):
    """Top-level names of the modules a module imports when it loads,
    leaving out imports inside function bodies."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        nodes.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["__init__", "cli", "reports", "errors",
                                    "defaults", "powersim"])
def test_parser_shell_and_power_load_no_numpy(module):
    # --help, --version, usage errors and `power` touch no array
    path = pathlib.Path(rdtoolkit.__file__).parent / f"{module}.py"
    assert "numpy" not in set(_module_level_imports(ast.parse(
        path.read_text())))


def test_shared_defaults_are_written_once():
    # the CLI parser and the analysis modules read these from one module
    for path in pathlib.Path(rdtoolkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) \
                    and type(node.value) in (int, float) \
                    and node.value in (9999, 200000, 0.15, 999, 2000):
                assert path.name == "defaults.py", (path.name, node.lineno)


def test_simulate_defaults_are_read_from_one_module():
    from rdtoolkit import cli, defaults, dgps

    args = cli.build_parser().parse_args(["simulate"])
    params = inspect.signature(dgps.simulate_coverage).parameters
    assert (args.n, args.replications) \
        == (params["n"].default, params["replications"].default) \
        == (defaults.SIMULATE_N, defaults.SIMULATE_REPLICATIONS) \
        == (1000, 2000)


def _reads(node, attribute):
    """Whether an expression reads an attribute of that name."""
    return any(isinstance(sub, ast.Attribute) and sub.attr == attribute
               for sub in ast.walk(node))


def test_treatment_rule_is_written_once():
    # which side of the cutoff a unit is on is RdSample.treated and
    # RdSample.side_rows; every other module reads them
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    for path in pathlib.Path(rdtoolkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if isinstance(op, ordering) and (
                        _reads(a, "score") and _reads(b, "cutoff")
                        or _reads(a, "cutoff") and _reads(b, "score")):
                    assert path.name == "sample.py", (path.name, node.lineno)


def _calls(tree, name):
    """The calls in a module of a function or class of that name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def test_files_are_hashed_in_one_place():
    # sample.sha256_file streams the digest that ingest and the cache
    # store read
    for path in pathlib.Path(rdtoolkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module}
            else:
                continue
            if "hashlib" in modules:
                assert path.name == "sample.py", (path.name, node.lineno)


def test_plot_bins_are_built_in_one_place():
    # each binning returns bounds and edges; one builder makes the records
    path = pathlib.Path(rdtoolkit.__file__).parent / "plotting.py"
    assert len(_calls(ast.parse(path.read_text()), "PlotBin")) == 1


def test_side_window_takes_centred_scores():
    # scores are centred once, by the caller; no call passes a cutoff
    from rdtoolkit.lpoly import side_window

    params = inspect.signature(side_window).parameters
    assert list(params) == ["xc", "y", "kernel", "h"]
    # every caller names its kernel and bandwidth
    assert all(param.default is inspect.Parameter.empty
               for param in params.values())
    calls = 0
    for path in pathlib.Path(rdtoolkit.__file__).parent.glob("*.py"):
        for call in _calls(ast.parse(path.read_text()), "side_window"):
            calls += 1
            assert len(call.args) + len(call.keywords) <= 4 and not any(
                isinstance(arg, ast.Constant) for arg in call.args), \
                (path.name, call.lineno)
    assert calls >= 1  # continuity._sides builds every fit's windows
