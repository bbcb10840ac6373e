"""Cases, answer comparison and the closed measuring loop.

Kept free of numpy and gptsteer so that the `cli` workload's measuring
process imports neither.
"""

import statistics
import time
import traceback
from dataclasses import dataclass, field

# Accuracy each answer key is compared to, relative to max(1, |reference|):
# the LP gap tolerance for LP values, the bisection width for robustness
# (general shapes bisect to 1e-6), the acceptance tolerance of the 1e5-sample
# Monte Carlo constant.  Booleans must match exactly.
ACCURACY = {
    "inj": 1e-7, "steer": 1e-7, "proj": 1e-7, "detection": 1e-7,
    "cmu": 1e-7, "robustness": 1e-6, "mc": 5e-3,
}
SLACK = 1e-7  # tolerance of the inequalities the library itself documents
WINDOW = 5    # questions on each side whose calibration times set one's speed


@dataclass(frozen=True)
class Case:
    """Questions sharing one input; `check(answers)` yields (index, why)."""

    kind: str
    questions: tuple   # of (label, zero-argument callable -> answer dict)
    check: object


def disagreement(answer, reference):
    """Why `answer` differs from `reference` beyond ACCURACY, or None."""
    if answer.keys() != reference.keys():
        return f"keys {sorted(answer)} != {sorted(reference)}"
    for key, ref in reference.items():
        got = answer[key]
        if isinstance(ref, bool) or isinstance(got, bool):
            if got is not ref:
                return f"{key}={got} expected {ref}"
        elif not abs(got - ref) <= ACCURACY[key] * max(1.0, abs(ref)):
            return f"{key}={got!r} expected {ref!r}"
    return None


@dataclass
class Tally:
    """Everything one measuring loop saw."""

    latencies: list = field(default_factory=list)   # seconds per question
    case_times: list = field(default_factory=list)  # seconds per case
    calibration_times: list = field(default_factory=list)  # per question
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)
    busy: float = 0.0   # answering seconds, checks excluded


def answer_case(case, tally, question_span=None, calibrate=None):
    """Ask every question of a case, timing each; returns the answers.

    Exceptions are failures of that question, never retried.  `calibrate`,
    if given, is timed after every question, outside the timed region,
    into tally.calibration_times.
    """
    answers = []
    for label, ask in case.questions:
        start = time.perf_counter()
        try:
            if question_span is None:
                answer = ask()
            else:
                with question_span():
                    answer = ask()
        except Exception as exc:  # a failed question must not end the run
            answer = None
            tally.problems.append(
                f"{case.kind}/{label} raised {exc!r}: "
                + traceback.format_exc(limit=-3).strip().replace("\n", " | "))
        elapsed = time.perf_counter() - start
        tally.latencies.append(elapsed)
        tally.busy += elapsed
        answers.append(answer)
        if calibrate is not None:
            tally.calibration_times.append(calibrate())
    tally.case_times.append(sum(tally.latencies[-len(answers):]))
    return answers


def judge(case, answers, tally, reference=None):
    """Count the case's questions and mark the failed ones.

    A question fails when it raised, breaks the case's invariants, or
    disagrees with `reference` (a list of answers) beyond ACCURACY.
    """
    bad = {i for i, a in enumerate(answers) if a is None}
    if not bad:
        for i, why in case.check(answers):
            bad.add(i)
            tally.problems.append(f"{case.kind}: {why}")
    if reference is not None:
        for i, (got, ref) in enumerate(zip(answers, reference)):
            why = None if got is None else disagreement(got, ref)
            if why is not None:
                bad.add(i)
                tally.problems.append(f"{case.kind}/q{i}: {why}")
    tally.attempted += len(answers)
    tally.failed += len(bad)
    tally.kinds[case.kind] = tally.kinds.get(case.kind, 0) + 1


def measure(cases, seconds, tally, reference=None, first_answers=None,
            question_span=None, cycle=None, calibrate=None):
    """Closed loop with one client: go through `cases` until `seconds` of
    answering time have passed, then on to the end of the `cycle` under way
    (default: the whole sequence), so every run asks the same mix.

    `reference` holds known answers for a prefix of the sequence;
    `first_answers` collects the first answer to each case, and later
    passes must agree with it.  `calibrate` goes to answer_case.
    """
    cycle = cycle or len(cases)
    k = 0
    while tally.busy < seconds or k % cycle:
        index = k % len(cases)
        case = cases[index]
        answers = answer_case(case, tally, question_span, calibrate)
        expected = None
        if reference is not None and index < len(reference):
            expected = reference[index]
        elif first_answers is not None and index in first_answers:
            expected = first_answers[index]
        judge(case, answers, tally, expected)
        if first_answers is not None and index not in first_answers \
                and None not in answers:
            first_answers[index] = answers
        k += 1
    return k


def at_reference_speed(tally, reference_s):
    """The tally's latencies at the machine speed where the calibration
    takes `reference_s`: each scaled by reference_s over the median
    calibration time of the WINDOW questions on either side of it."""
    times = tally.calibration_times
    return [x * reference_s
            / statistics.median(times[max(0, i - WINDOW):i + WINDOW + 1])
            for i, x in enumerate(tally.latencies)]
