"""Kill a tuning run inside its measurement loop, as a crash would."""

from repro.runtime import Evaluator


class MeasureKilled(BaseException):
    """Escapes every ``except Exception``, as a crash would."""


def patch_measure_kill(monkeypatch):
    """Patch ``Evaluator.measure`` and return ``arm``: after ``arm(n)``
    the (n+1)-th fresh measurement raises :class:`MeasureKilled`, once;
    ``arm(None)`` disarms."""
    left = [None]
    real_measure = Evaluator.measure

    def measure(self, point):
        if left[0] is not None:
            if left[0] == 0:
                left[0] = None
                raise MeasureKilled
            left[0] -= 1
        return real_measure(self, point)

    def arm(measurements):
        left[0] = measurements

    monkeypatch.setattr(Evaluator, "measure", measure)
    return arm
