"""Weather-station RF decoding, compact LoRaWAN repacking, and transponder
duty-cycle/energy simulation."""

_SUBMODULES = frozenset({"cli", "core", "energy", "lorawan", "rfdecode", "simkit"})


def __getattr__(name: str):
    """``wxkit.<module>`` imports that module on first use (PEP 562), so
    ``import wxkit`` loads none of them."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime logs
    __import__(f"{__name__}.{name}")
    return globals()[name]
