"""gridsentry: smart-grid covert attack / fault simulation and detection testbed."""

__version__ = "0.1.0"


class InputError(ValueError):
    """A refusal of a run's input: cli.main prints it on one line, exit 2."""
