"""The public compilation-method registry.

Named methods used to live in a plain module-level dict
(``repro.compiler.flow.METHOD_PRESETS``) that callers mutated ad hoc to
add flows.  This module replaces that with a small explicit API:

* :func:`register_method` — publish a named
  :class:`~repro.compiler.pipeline.PipelineSpec` so it resolves
  everywhere a method name is accepted (``repro.compile``, the service
  job parser, the CLI ``--method`` choices);
* :func:`available_methods` — the sorted names currently registered;
* :func:`get_method` — name → spec, raising the one canonical
  unknown-method error every entry point reports;
* :func:`unregister_method` — remove a registration (tests, plugins).

The paper's seven methodologies and the two structural methods
(``swap_network``, ``parity``) are registered here at import time, so
the registry is never empty.  ``METHOD_PRESETS`` remains importable as a
read-only mapping *view* over this registry: it tracks every
registration, and writes raise ``TypeError`` — they go through
:func:`register_method` and :func:`unregister_method`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .pipeline import PipelineSpec

__all__ = [
    "register_method",
    "unregister_method",
    "available_methods",
    "get_method",
    "unknown_method_error",
    "method_presets_view",
]

_REGISTRY: Dict[str, PipelineSpec] = {}


def register_method(
    name: str, spec: PipelineSpec, *, overwrite: bool = False
) -> PipelineSpec:
    """Publish ``spec`` under ``name`` in the global method registry.

    Registered names resolve everywhere a method is accepted: the
    :func:`repro.compile` facade, ``compile_with_method``, service job
    parsing, and the CLI ``--method`` choices.

    Args:
        name: Method name (non-empty, no whitespace — it doubles as a
            CLI token and JSONL field).
        spec: The :class:`~repro.compiler.pipeline.PipelineSpec` the
            name resolves to.
        overwrite: Allow replacing an existing registration; without it
            a name collision raises ``ValueError`` so plugins cannot
            silently shadow the paper presets.

    Returns:
        The registered spec (for chaining).
    """
    if not isinstance(name, str) or not name or name != name.strip() or " " in name:
        raise ValueError(f"method name must be a non-empty token, got {name!r}")
    if not isinstance(spec, PipelineSpec):
        raise TypeError(
            f"spec must be a PipelineSpec, got {type(spec).__name__}"
        )
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"method {name!r} is already registered; pass overwrite=True "
            f"to replace it"
        )
    _REGISTRY[name] = spec
    return spec


def unregister_method(name: str) -> PipelineSpec:
    """Remove a registration and return its spec (``ValueError`` when
    the name is unknown)."""
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise unknown_method_error(name) from None


def available_methods() -> Tuple[str, ...]:
    """Sorted tuple of every registered method name."""
    return tuple(sorted(_REGISTRY))


def unknown_method_error(name) -> ValueError:
    """The canonical unknown-method error — every entry point (api,
    compile_with_method, service parsing, CLI) raises exactly this, so
    users see the same sorted registry listing everywhere."""
    return ValueError(
        f"unknown method {name!r}; options: {sorted(_REGISTRY)}"
    )


def get_method(name: str) -> PipelineSpec:
    """Resolve a registered method name to its spec."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise unknown_method_error(name) from None


_VIEW: Mapping[str, PipelineSpec] = MappingProxyType(_REGISTRY)


def method_presets_view() -> Mapping[str, PipelineSpec]:
    """The shared read-only ``METHOD_PRESETS`` view of the registry."""
    return _VIEW


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------
# The paper's named methodologies (Figure 2)...
register_method("naive", PipelineSpec(placement="random", ordering="random"))
register_method("greedy_v", PipelineSpec(placement="greedy_v", ordering="random"))
register_method("greedy_e", PipelineSpec(placement="greedy_e", ordering="random"))
register_method("qaim", PipelineSpec(placement="qaim", ordering="random"))
register_method("ip", PipelineSpec(placement="qaim", ordering="ip"))
register_method("ic", PipelineSpec(placement="qaim", ordering="ic"))
register_method("vic", PipelineSpec(placement="qaim", ordering="vic"))
# ...and the structural methods: the odd/even SWAP-network on a linear
# chain embedding, and the LHZ parity encoding.
register_method(
    "swap_network", PipelineSpec(placement="linear", ordering="swap_network")
)
register_method("parity", PipelineSpec(placement="lhz", ordering="parity"))
