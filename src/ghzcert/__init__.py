"""Sample-efficient device-independent certification of 4-qubit GHZ states."""

__version__ = "0.1.0"
