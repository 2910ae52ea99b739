"""Answer oracles: every benchmark answer is checked, and a wrong one is a failure.

Each check returns None when the answer is acceptable and a one-line reason
otherwise.  The workloads count every non-None reason in ``failed`` and set
``correct`` to false, so an injected wrong verdict or forged witness fails
the run (see ``perfbench/tests/test_oracle.py``).
"""

from __future__ import annotations


def engine_verdict(expected: bool | None, verdict) -> str | None:
    """An in-process :class:`repro.Verdict` against what is known of its pair.

    ``expected`` is True for an equivalent copy and None when the pair's
    answer is not known beforehand (one-transition edits).  Every
    inequivalent verdict must carry a witness that
    :meth:`~repro.Verdict.verify_witness` accepts.
    """
    if expected is True and not verdict.equivalent:
        return "an equivalent copy was answered inequivalent"
    if expected is False and verdict.equivalent:
        return "a known-inequivalent pair was answered equivalent"
    if not verdict.equivalent:
        if verdict.witness is None:
            return "an inequivalent verdict carries no witness"
        if verdict.verify_witness() is not True:
            return "verify_witness() rejected the witness"
    return None


def service_answer(reference: bool, response: dict) -> str | None:
    """A service check response against the in-process Engine answer."""
    answer = response.get("equivalent")
    if not isinstance(answer, bool):
        return "the response carries no boolean 'equivalent'"
    if answer != reference:
        return f"service answered {answer}, the in-process engine {reference}"
    return None


def conformance(expected: bool, verdict) -> str | None:
    """A protocol conformance verdict: systems conform, mutants do not.

    A non-conforming verdict must carry the checker's replay-verified
    distinguishing trace.
    """
    if verdict.equivalent != expected:
        return f"conformance answered {verdict.equivalent}, expected {expected}"
    if not verdict.equivalent:
        if verdict.witness is None or verdict.stats.details.get("trace_verified") is not True:
            return "a non-conforming verdict carries no verified trace"
    return None


def stuck(expected: str | None, must_reach: str | None, report) -> str | None:
    """A ``find_stuck`` report against the scenario's known stuck state.

    ``expected`` is ``"deadlock"``/``"livelock"`` or None (no stuck state);
    ``must_reach`` names an observable action the trace has to contain (a
    one-shot protocol's orderly termination) -- or, prefixed with ``!``,
    one it must not contain (a wedge before the outcome).
    """
    if expected is None:
        return None if report is None else f"unexpected {report.kind} at {report.state}"
    if report is None:
        return f"the known {expected} was not found"
    if report.kind != expected:
        return f"found a {report.kind}, expected a {expected}"
    if must_reach is not None:
        action = must_reach.lstrip("!")
        present = action in report.trace
        if must_reach.startswith("!") == present:
            verb = "reaches" if present else "misses"
            return f"the stuck trace {verb} {action!r}"
    return None
