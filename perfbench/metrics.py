"""Arithmetic of the llmpq benchmark: request timings, tails, goodput.

Every function works on plain dicts shaped like bench.cpp's raw output, so
the self-test below can feed it hand-built samples. run.py runs the
self-test before every measurement.
"""

import statistics

MIN_BEYOND = 10  # a tail percentile needs at least this many samples beyond


def tail(values):
    """Highest percentile with at least MIN_BEYOND samples beyond it.

    Nearest rank: the value at 1-based rank k = n - MIN_BEYOND has exactly
    MIN_BEYOND samples ranked beyond it, and is the 100 * k / n percentile.
    Below 2 * MIN_BEYOND samples that percentile would sit under the
    median, so the maximum is reported instead (percentile 100), flagged
    as short.

    Returns (value, percentile, n, short).
    """
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * MIN_BEYOND:
        return v[-1], 100.0, n, True
    k = n - MIN_BEYOND
    return v[k - 1], 100.0 * k / n, n, False


def p50(values):
    return statistics.median(values)


def request_times(r):
    """(ttft_s, tpot_s) of one completed serving request, from its due time.

    The engine stamps arrival/admit/prefill/finish on its own clock at
    submit(); the generator's lateness (submit - due, on the benchmark's
    clock) is added so every time counts from when the request was due.
    First token = admit + prefill. TPOT = (finish - first) / (gen - 1), or
    None for a one-token request.
    """
    late = r["submit_s"] - r["due_s"]
    first = r["admit_s"] + r["prefill_s"]
    ttft = first - r["arrival_s"] + late
    gen = r["gen_tokens"]
    tpot = (r["finish_s"] - first) / (gen - 1) if gen > 1 else None
    return ttft, tpot


def busy_seconds(requests):
    """Seconds in which some completed request was due and not yet finished.

    The union of the intervals [due, finish] on the benchmark's clock (the
    engine's finish stamp is moved there through submit - arrival), so the
    idle gaps of an open-loop schedule do not count and a faster engine
    shows as a shorter busy time.
    """
    spans = sorted((r["due_s"], r["submit_s"] + r["finish_s"] - r["arrival_s"])
                   for r in requests if completed(r))
    total, end = 0.0, float("-inf")
    for begin, finish in spans:
        if finish > end:
            total += finish - max(begin, end)
            end = finish
    return total


def completed(r):
    return r.get("outcome") == "completed"


def fail_share(requests):
    """Timed-out, rejected, failed (or missing) requests over requests sent."""
    return sum(1 for r in requests if not completed(r)) / len(requests)


def good(r, ttft_limit_s, tpot_limit_s):
    """Whether a request met both latency limits; failures always miss."""
    if not completed(r):
        return False
    ttft, tpot = request_times(r)
    return ttft <= ttft_limit_s and (tpot is None or tpot <= tpot_limit_s)


def goodput(requests, ttft_limit_s, tpot_limit_s, seconds):
    """Requests meeting both limits, per second of schedule."""
    return sum(1 for r in requests
               if good(r, ttft_limit_s, tpot_limit_s)) / seconds


def offline_requests(raw):
    """The rows of the offline batches as requests due at batch start.

    Each row's first token appears when the batch's prefill phase ends and
    its last when generate() returns.
    """
    out = []
    for b in raw["batches"]:
        for _ in range(raw["batch"]):
            out.append({"outcome": "completed", "due_s": 0.0, "submit_s": 0.0,
                        "arrival_s": 0.0, "admit_s": 0.0,
                        "prefill_s": b["prefill_s"],
                        "finish_s": b["latency_s"],
                        "gen_tokens": raw["gen_tokens"]})
    return out


def self_test():
    """Checks the arithmetic above on hand-built samples; raises on error."""
    def close(a, b):
        return abs(a - b) < 1e-9

    # Tail: rank n - 10, so exactly ten samples lie beyond it.
    assert tail(list(range(1, 101))) == (90, 90.0, 100, False)
    assert tail(list(range(20, 0, -1))) == (10, 50.0, 20, False)
    assert tail(list(range(1, 20))) == (19, 100.0, 19, True)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3, True)
    value, pct, n, _ = tail([0.1 * i for i in range(40)])
    assert close(value, 2.9) and pct == 75.0 and n == 40
    assert sum(1 for x in [0.1 * i for i in range(40)] if x > value) == 10

    # TTFT / TPOT from engine stamps plus the generator's lateness.
    r = {"outcome": "completed", "due_s": 1.0, "submit_s": 1.2,
         "arrival_s": 5.0, "admit_s": 5.5, "prefill_s": 0.3,
         "finish_s": 7.8, "gen_tokens": 6}
    ttft, tpot = request_times(r)
    assert close(ttft, 1.0) and close(tpot, 0.4)
    one = dict(r, gen_tokens=1, finish_s=5.8)
    assert request_times(one)[1] is None

    # Goodput: failures and refusals count as misses; per schedule second.
    slow = dict(r, finish_s=r["finish_s"] + 5.0)      # TPOT 1.4 s
    rejected = {"outcome": "rejected", "due_s": 2.0, "submit_s": 2.0}
    timed_out = {"outcome": "timed_out", "due_s": 3.0, "submit_s": 3.0}
    reqs = [r, one, slow, rejected, timed_out]
    assert close(goodput(reqs, 1.5, 0.5, 10.0), 0.2)
    assert close(goodput(reqs, 0.5, 0.5, 10.0), 0.0)  # TTFT 1.0 > 0.5
    assert close(fail_share(reqs), 0.4)
    assert close(fail_share([r, one]), 0.0)

    # Busy time: the union of [due, finish]; idle gaps and failures do not
    # count, overlapping requests count once.
    def at(due, finish):
        return {"outcome": "completed", "due_s": due, "submit_s": due + 0.5,
                "arrival_s": 100.0, "finish_s": 100.0 + finish - due - 0.5}
    burst = [at(0.0, 2.0), at(0.0, 3.0), at(5.0, 6.0), rejected]
    assert close(busy_seconds(burst), 4.0)
    assert close(busy_seconds([at(0.0, 3.0), at(2.0, 4.0), at(2.5, 3.5)]),
                 4.0)

    # Offline rows: TTFT = prefill phase, TPOT over the decode phase.
    raw = {"batch": 2, "gen_tokens": 5,
           "batches": [{"latency_s": 10.0, "prefill_s": 6.0}]}
    rows = offline_requests(raw)
    assert len(rows) == 2
    ttft, tpot = request_times(rows[0])
    assert close(ttft, 6.0) and close(tpot, 1.0)
