"""Exception types shared across the library.

Every error this package raises is one of three kinds: InvalidInput (an
argument the operation cannot use, such as an empty cloud or batch, more
neighbours than the cloud holds, training data without both classes,
layers that do not chain, or an image smaller than the network patch; the
message names which), FormatError (a malformed file) and NoPeduncleFound.

A frame with nothing to cut is distinct from data or usage errors so
callers such as a robot executive can react differently to "nothing
there" versus "something is broken". Its `reason` names the stage that
came up empty:

- NoPepperFound: no pepper cluster in the frame;
- RoiOutOfImage: pipeline.compute_roi was given a pepper box off the
  image. A pepper located in a frame has its box inside the image, so
  run_detection never raises it;
- EmptyProjection: no point inside the region of interest was scored;
- NoPeduncleFound: no cluster survived the filtering stage.
"""


class PeduncleError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(PeduncleError):
    """Empty, non-finite, mis-shaped or otherwise unusable input."""


class FormatError(PeduncleError):
    """A file did not match its declared on-disk format."""


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
