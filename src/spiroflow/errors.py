"""Exception hierarchy shared across the package."""


class SpiroError(Exception):
    """Base class for all package errors.

    row is the index of the offending curve when a batched pass raises.
    """

    def __init__(self, *args, row: int | None = None):
        super().__init__(*args)
        self.row = row


class InvalidCurve(SpiroError):
    pass


class NonMonotonicVolume(SpiroError):
    pass


class InvalidArgument(SpiroError):
    pass


class DegenerateCurve(SpiroError):
    pass


class EmptyPhase(SpiroError):
    pass


class InvalidParams(SpiroError):
    pass


class EmptySequence(SpiroError):
    pass


class DegenerateLabels(SpiroError):
    pass


class InvalidLoss(SpiroError):
    pass


class UndefinedMetric(SpiroError):
    pass


class InvalidSpec(SpiroError):
    pass


class ParseError(SpiroError):
    pass


class ValidationError(SpiroError):
    pass
