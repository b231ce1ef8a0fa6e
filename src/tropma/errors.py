"""The algorithmic failures that the CLI maps to exit code 2.

They live here, apart from the code that raises them, so that `cli.main`
can catch them without importing that code.  `plfunc` and `approx`
re-export them under their old names.
"""


class CellWalkError(RuntimeError):
    """The cell walk could not certify the cells of linearity."""


class CertificateError(RuntimeError):
    """An exact check of data the program derived itself failed."""


class PerturbationError(RuntimeError):
    def __init__(self, last_failure: str):
        super().__init__(f"perturbation retries exhausted (last failure: {last_failure})")
        self.last_failure = last_failure


class StrictificationError(ValueError):
    pass
