"""The re-export tables of the packages that resolve names on use.

A package's ``_EXPORTS`` maps each public name to the module that
defines it, and ``__all__`` and ``dir()`` come from it; a wrong entry
would surface only when some caller first reads the name.  Two name
sets that stand in for a module they avoid importing are held to it
here too: ``TenantSpec.is_pipeline``'s pipeline names and the cache
architectures in ``BACKENDS``.
"""

from __future__ import annotations

import importlib
import types

import pytest

import repro.cache
import repro.core
import repro.kvcache
import repro.ml
import repro.workloads

LAZY_PACKAGES = [repro.cache, repro.core, repro.kvcache, repro.ml, repro.workloads]


@pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda p: p.__name__)
def test_every_exported_name_resolves_and_is_listed(package):
    assert set(package._EXPORTS) <= set(package.__all__)
    listed = dir(package)
    for name in package.__all__:
        getattr(package, name)
        assert name in listed, name


@pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda p: p.__name__)
def test_every_exported_name_is_its_modules_object(package):
    for name, module_name in package._EXPORTS.items():
        module = importlib.import_module(module_name, package.__name__)
        value = getattr(package, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            # The module that defines it, not one that imports it.
            assert value.__module__ == module.__name__, name


@pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda p: p.__name__)
def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    with pytest.raises(AttributeError, match=repr(package.__name__)):
        package.NoSuchName
    assert not hasattr(package, "NoSuchName")


def test_pipeline_names_are_the_pipeline_apps():
    from repro.workloads.faasload import PIPELINE_NAMES, TenantSpec
    from repro.workloads.pipelines import ALL_PIPELINES

    assert PIPELINE_NAMES == set(ALL_PIPELINES)
    for name in ALL_PIPELINES:
        assert TenantSpec(tenant_id="t", workload=name).is_pipeline
    assert not TenantSpec(tenant_id="t", workload="wand_blur").is_pipeline


def test_backend_names_are_the_architectures_names():
    for name, class_name in repro.cache.BACKENDS.items():
        assert getattr(repro.cache, class_name).name == name
