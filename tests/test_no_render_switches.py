"""Guard against path-picking switches in the production API.

One implementation per behaviour: reference loops live in
``repro.core.reference`` / ``repro.render.reference`` as test oracles,
not behind ``optimized=``/``indexed=``/``vectorized=``/``columnar=``
keywords of the production callables.  Workload variants such as
``seidel_trace(optimized=)`` are real program variants and live in
``repro.analysis``, outside this guard's scope.
"""

import importlib
import inspect
import pkgutil

import repro.core
import repro.render
import repro.session

SWITCHES = {"optimized", "indexed", "vectorized", "columnar"}


def modules():
    yield repro.session
    for package in (repro.core, repro.render):
        yield package
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + "."):
            yield importlib.import_module(info.name)


def public_callables():
    """``(qualified name, callable)`` of every public function, class
    and public method defined in the guarded modules."""
    for module in modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qualified = "{}.{}".format(module.__name__, name)
            yield qualified, obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield "{}.{}".format(qualified, attr), member


def test_no_public_callable_takes_a_path_switch():
    offenders = []
    for qualified, obj in public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found = SWITCHES & set(parameters)
        if found:
            offenders.append("{}({})".format(qualified,
                                             ", ".join(sorted(found))))
    assert not offenders, offenders


def test_guard_sees_the_renderers():
    """The walk reaches the callables it must check."""
    names = {qualified for qualified, __ in public_callables()}
    assert "repro.render.timeline.render_timeline" in names
    assert "repro.render.counter_overlay.render_counter" in names
    assert "repro.session.AnalysisSession.render_frame" in names
    assert "repro.core.trace.Trace.__init__" in names
