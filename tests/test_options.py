"""The public option set: every parameter with a default, of every name in ``anytime.__all__``.

Each option doubles the configurations the tests must cover, so a new
one (or a changed default) fails here until the table below is edited
with it.
"""

from __future__ import annotations

import inspect

import anytime

OPTIONS = {
    "CertSpec.__init__(lam)": "0.5",
    "Schedule.__init__(growth)": "2.0",
    "Schedule.__init__(offset)": "0",
    "UnionCS.__init__(draws)": "None",
    "benchmark_sweep(cap)": "1000000",
    "benchmark_sweep(methods)": "('sprt', 'betting', 'union', 'adaptive')",
    "benchmark_sweep(seed)": "42",
    "certify_binary(cap)": "1000000",
    "certify_binary(cs_kind)": "'betting'",
    "certify_binary(rng)": "None",
    "certify_multiclass(cap)": "1000000",
    "certify_multiclass(cs_kind)": "'betting'",
    "certify_multiclass(rng)": "None",
    "certify_multiclass(warmup)": "100",
    "decide_with_cs(cap)": "1000000",
    "decide_with_cs(rng)": "None",
    "enumeration_coverage(kind)": "'rcp'",
    "enumeration_coverage(side)": "'upper'",
    "sprt_ideal(cap)": "1000000",
    "staged_adaptive(cap)": "1000000",
    "substream(into)": "None",
    "width_target_run(cap)": "1000000",
    "width_target_run(cs_kind)": "'betting'",
    "width_target_run(rng)": "None",
}


def public_options() -> dict[str, str]:
    """``{"name(param)": repr(default)}`` over the public functions, constructors and methods."""
    found = {}
    for name in anytime.__all__:
        obj = getattr(anytime, name)
        if inspect.isclass(obj):
            members = [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr in vars(obj)
                if attr == "__init__" or not attr.startswith("_")
            ]
        else:
            members = [(name, obj)]
        for label, fn in members:
            if not inspect.isroutine(fn):
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found[f"{label}({param.name})"] = repr(param.default)
    return found


def test_public_option_set_is_pinned():
    assert public_options() == OPTIONS
