"""Every lru_cache in the package is bounded."""

import importlib
import pkgutil

import critline


def test_every_cache_has_a_finite_maxsize():
    caches = {}
    for info in pkgutil.iter_modules(critline.__path__):
        module = importlib.import_module(f"critline.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {"specfun._sieve", "specfun.euler_product", "specfun._phase_plan",
            "mollifier._coefficients"} <= set(caches)
    unbounded = sorted(name for name, size in caches.items() if size is None)
    assert unbounded == []
