"""Meta-tests on the public API surface.

Enforces the documentation deliverable mechanically: every public module,
class, function and method under ``repro`` carries a docstring, every
name exported via ``__all__`` resolves, and the top-level package
re-exports the advertised entry points.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro", "repro.core", "repro.phy", "repro.antenna", "repro.channel",
    "repro.hardware", "repro.node", "repro.network", "repro.baselines",
    "repro.sim", "repro.experiments", "repro.cluster",
    "repro.telemetry", "repro.engine", "repro.energy",
]


def _all_modules():
    names = set()
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.add(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.add(f"{package_name}.{info.name}")
    return sorted(names)


ALL_MODULES = _all_modules()


class TestImportsAndExports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_top_level_reexports(self):
        for name in ("OtamLink", "OtamModulator", "JointDemodulator",
                     "MmxNode", "MmxAccessPoint", "MultiNodeNetwork",
                     "TimeModulatedArray", "FdmAllocator", "PacketCodec",
                     "default_lab_room", "PlacementSampler",
                     "design_mmx_beams", "comparison_table"):
            assert hasattr(repro, name), f"repro.{name} not exported"

    def test_version(self):
        assert repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_items_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in dir(module):
            if name.startswith("_"):
                continue
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "").split(".")[0] != "repro":
                continue
            if not inspect.getdoc(obj):
                undocumented.append(name)
                continue
            if inspect.isclass(obj):
                for member_name, member in inspect.getmembers(obj):
                    if member_name.startswith("_"):
                        continue
                    if (inspect.isfunction(member)
                            and member.__qualname__.startswith(obj.__name__)
                            and not inspect.getdoc(member)):
                        undocumented.append(f"{name}.{member_name}")
        assert not undocumented, (
            f"{module_name}: missing docstrings on {undocumented}")
