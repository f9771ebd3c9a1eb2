"""meanscape: algebra, geometry and iteration theory of two-variable means.

Each module's ``__all__`` is the one list of its public names; the package re-exports them.
"""

from .core import *
from .algebra import *
from .metric import *
from .middle import *
from .expressions import *

__all__ = core.__all__ + algebra.__all__ + metric.__all__ + middle.__all__ + expressions.__all__

__version__ = "0.1.0"


def __getattr__(name: str):
    # loaded on first use: ``python -m meanscape.cli`` warns if the package imported it
    if name == "cli_run":
        from .cli import cli_run
        return cli_run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
