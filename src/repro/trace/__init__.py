"""Dynamic trace generation from compiled programs."""

from repro.trace.addrgen import AddressGenerator, make_generator
from repro.trace.stream import InstructionStream

__all__ = ["AddressGenerator", "InstructionStream", "make_generator"]
