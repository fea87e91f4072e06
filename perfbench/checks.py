"""Output checkers shared by the workloads.

Three outcomes exist for a checked operation:

* it passes;
* it fails a check -> :class:`CheckFailed`; the run reports
  ``"correct": false``;
* it shows the known distributed-memory boundary fault (see
  ``README.md``) -> counted in ``failed``, while the region that fault cannot
  reach must still be exact.  Any difference there is a new fault and raises
  :class:`UnexpectedFault`, which stops the run with an error.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Largest absolute difference accepted against a NumPy reference.  Every
#: output is additionally required to be bitwise equal to it, which holds
#: today; the bound is what the error message reports against.
TOLERANCE = 1e-12


class CheckFailed(AssertionError):
    """An output differs from its reference or a counter breaks an
    invariant."""


class UnexpectedFault(RuntimeError):
    """A distributed result differs where the known boundary fault cannot
    reach: a new fault, not the counted one."""


def max_abs_diff(got: np.ndarray, want: np.ndarray) -> float:
    with np.errstate(invalid="ignore", over="ignore"):
        delta = np.abs(np.asarray(got, dtype=np.float64)
                       - np.asarray(want, dtype=np.float64))
    finite = delta[np.isfinite(delta)]
    return float(finite.max()) if finite.size else float("inf")


def check_equal(label: str, got: np.ndarray, want: np.ndarray) -> None:
    """``got`` must be within :data:`TOLERANCE` of ``want`` and bitwise
    equal to it, so that a one-ulp drift in a single cell is caught."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        raise CheckFailed(
            f"{label}: got {got.dtype}{got.shape}, want {want.dtype}{want.shape}"
        )
    if got.tobytes(order="F") == want.tobytes(order="F"):
        return
    cells = int(np.count_nonzero(got != want))
    diff = max_abs_diff(got, want)
    verdict = "within" if diff <= TOLERANCE else "beyond"
    raise CheckFailed(
        f"{label}: {cells} cell(s) differ, max |diff| {diff:.3g} "
        f"({verdict} {TOLERANCE:g}, not bitwise equal)"
    )


def check_count(label: str, got: int, want: int) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got}, want {want}")


def interior(shape: Sequence[int], margin: int):
    """The index region at least ``margin`` cells from every face."""
    region = tuple(slice(margin, extent - margin) for extent in shape)
    if any(s.start >= s.stop for s in region):
        raise ValueError(f"margin {margin} leaves no interior in {tuple(shape)}")
    return region


def check_distributed(label: str, field: np.ndarray, want: np.ndarray,
                      margin: int) -> bool:
    """Check a gathered distributed field against the serial result.

    Returns True when the whole field is bitwise equal, False when only the
    known boundary fault shows (cells within ``margin`` of the global
    boundary differ).  Raises :class:`UnexpectedFault` when any cell at least
    ``margin`` cells from the boundary differs.
    """
    field = np.asarray(field)
    want = np.asarray(want)
    if field.shape != want.shape:
        raise UnexpectedFault(
            f"{label}: gathered shape {field.shape}, serial {want.shape}"
        )
    inner = interior(field.shape, margin)
    if field[inner].tobytes() != want[inner].tobytes():
        cells = int(np.count_nonzero(field[inner] != want[inner]))
        raise UnexpectedFault(
            f"{label}: {cells} cell(s) at least {margin} from the global "
            f"boundary differ from the serial result (max |diff| "
            f"{max_abs_diff(field[inner], want[inner]):.3g}); the known "
            f"boundary fault cannot reach them"
        )
    return field.tobytes() == want.tobytes()
