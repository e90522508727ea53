"""Kept only because ``perfbench/rep.py:232-249`` and
``perfbench/spans.py:121,157,159`` import it; no ``repro`` module does.

No native kernels ship: :func:`get_native` always reports them
unavailable.
"""


def get_native():
    """``None``: no native kernel library is available."""
    return None
