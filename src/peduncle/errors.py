"""Exception types shared across the library.

A frame with nothing to cut is one type, NoPeduncleFound, distinct from
data or usage errors so callers such as a robot executive can react
differently to "nothing there" versus "something is broken". Its `reason`
names the stage that came up empty:

- NoPepperFound: no pepper cluster in the frame;
- RoiOutOfImage: the region of interest above the pepper lies off the image;
- EmptyProjection: no point inside the region of interest was scored;
- NoPeduncleFound: no cluster survived the filtering stage.
"""


class PeduncleError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(PeduncleError):
    """An operation received an empty cloud, subset, cluster or batch."""


class InsufficientPoints(PeduncleError):
    """A query asked for more neighbors than the cloud contains."""


class InvalidInput(PeduncleError):
    """Non-finite or otherwise malformed numeric input."""


class DegenerateTraining(PeduncleError):
    """Training data does not contain enough samples of every class."""


class ShapeError(PeduncleError):
    """Tensor shapes are inconsistent with the layer specification."""


class InputTooSmall(PeduncleError):
    """Image smaller than the network input patch."""


class NoPeduncleFound(PeduncleError):
    """Nothing to cut in this frame (operational, not fatal).

    `reason` is one of REASONS; `survivors` holds the filter's
    (step, name, count) tuples when the miss came from the filtering stage.
    """

    REASONS = ("NoPepperFound", "RoiOutOfImage", "EmptyProjection", "NoPeduncleFound")

    def __init__(self, reason: str, message: str, survivors=()):
        if reason not in self.REASONS:
            raise ValueError(f"unknown miss reason {reason!r}")
        super().__init__(message)
        self.reason = reason
        self.survivors = list(survivors)


class EmptyEvaluation(PeduncleError):
    """Evaluation requested on data without any labeled points."""


class FormatError(PeduncleError):
    """A file did not match its declared on-disk format."""
