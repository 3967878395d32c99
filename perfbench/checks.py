"""Correctness checks. Each failed check counts toward ``error_rate``.

Every check is a plain function of data the benchmark already holds,
returning a list of failure messages (empty when the check passes), so
each can be exercised on a planted mismatch without running a
simulation.
"""


class CheckLog:
    """Named check outcomes for one workload run.

    A check evaluated on several passes keeps one entry: how often it
    ran, how often it failed, and every failure message.
    """

    def __init__(self):
        self.results = {}  # name -> [evaluations, failed, messages]

    def record(self, name, failures):
        entry = self.results.setdefault(name, [0, 0, []])
        entry[0] += 1
        if failures:
            entry[1] += 1
            entry[2].extend(failures)

    @property
    def attempted(self):
        return sum(entry[0] for entry in self.results.values())

    @property
    def failed(self):
        return sum(entry[1] for entry in self.results.values())

    def lines(self):
        for name, (evaluations, failed, messages) in self.results.items():
            status = "FAIL" if failed else "ok  "
            yield "{} {} ({}/{} failed)".format(status, name, failed,
                                               evaluations)
            for message in messages:
                yield "     {}".format(message)


def same_digest(reference, digests):
    """Every pass reproduced the reference pass's simulated digest."""
    return [
        "pass {} digest {} != reference {}".format(index, digest[:16],
                                                   reference[:16])
        for index, digest in enumerate(digests)
        if digest != reference
    ]


def payloads_equal(cold, warm):
    """Cold and warm figure payloads match once ``elapsed_seconds`` goes."""
    cold = {k: v for k, v in cold.items() if k != "elapsed_seconds"}
    warm = {k: v for k, v in warm.items() if k != "elapsed_seconds"}
    if cold == warm:
        return []
    differing = sorted(
        key for key in set(cold) | set(warm) if cold.get(key) != warm.get(key)
    )
    return ["figure payload differs in {}".format(", ".join(differing))]


def journal_accounts(journal, total):
    """Cold sweep: the fresh journal saw every cell executed, once.

    ``journal`` is a :class:`~repro.sim.engine.SweepReport` journal dict.
    """
    if journal is None:
        return ["the cold sweep ran without its journal"]
    failures = []
    if journal["replayed"] + journal["executed"] != total:
        failures.append("replayed {} + executed {} != {} cells".format(
            journal["replayed"], journal["executed"], total))
    if journal["executed"] != total:
        failures.append("executed {} of {} cells on a fresh journal".format(
            journal["executed"], total))
    return failures


def all_cached(cache_hits, total):
    """Warm sweep: the cache served every cell, so nothing simulated."""
    if cache_hits == total:
        return []
    return ["cache served {} of {} cells".format(cache_hits, total)]


def no_failed_cells(failures):
    """The sweep quarantined nothing."""
    return ["cell {} failed: {}".format(f.spec.workload, f.message)
            for f in failures]


def no_violations(reports):
    """No verify campaign found a violation."""
    return [
        "{}: {} violation(s), first: {}".format(
            report.workload_name, len(report.violations),
            report.violations[0].get("kind"),
        )
        for report in reports if report.violations
    ]


def exhaustive_complete(reports):
    """Every exhaustive campaign enumerated its whole (bounded) tree."""
    return [
        "{}: exhaustive exploration truncated after {} schedules".format(
            report.workload_name, report.schedules_explored
        )
        for report in reports
        if report.explorer == "exhaustive" and not report.complete
    ]
