"""httperf-like open-loop request generation.

§3.3: "These requests were generated using httperf on a separate client
machine.  60 client sessions were created and half of them generated high
priority bidding requests and the other half generated low priority
comment requests.  Each request class has a Poisson arrival distribution
with mean rate equal to 150 requests/sec."
"""

from dataclasses import dataclass, field

from repro.apps.rubis.requests import BIDDING, COMMENT, Request


#: The request classes, each with its own sessions.
PROFILES = (BIDDING, COMMENT)


@dataclass
class HttperfConfig:
    sessions_per_class: int = 30
    rate_per_class: float = 150.0
    duration: float = 60.0
    start: float = 0.0


@dataclass
class HttperfStats:
    generated: dict = field(default_factory=dict)
    sessions_done: int = 0

    def note(self, class_name):
        self.generated[class_name] = self.generated.get(class_name, 0) + 1


def spawn_httperf(node, dispatcher, config, streams):
    """Start all sessions on ``node``; requests go to ``dispatcher``.

    ``streams`` is the cluster's :class:`~repro.sim.rng.RandomStreams`;
    each session gets an independent substream so monitor-on/off runs see
    identical arrival processes.  Returns ``(tasks, stats)``.
    """
    stats = HttperfStats()
    tasks = []
    for profile in PROFILES:
        session_rate = config.rate_per_class / config.sessions_per_class
        for session in range(config.sessions_per_class):
            rng = streams.stream(
                "httperf/{}/{}".format(profile.name, session)
            )
            tasks.append(
                node.spawn(
                    "httperf-{}-{}".format(profile.name, session),
                    _session, dispatcher, profile, session, session_rate,
                    config, rng, stats,
                )
            )
    return tasks, stats


def _session(ctx, dispatcher, profile, session, rate, config, rng, stats):
    if config.start > ctx.now:
        yield from ctx.sleep(config.start - ctx.now)
    end = config.start + config.duration
    while True:
        gap = rng.expovariate(rate)
        if ctx.now + gap >= end:
            break
        yield from ctx.sleep(gap)
        # Building the request costs a hair of user CPU (httperf itself).
        yield from ctx.compute(5e-6)
        stats.note(profile.name)
        dispatcher.submit(Request(profile, session, ctx.now))
    stats.sessions_done += 1
    return stats.generated.get(profile.name, 0)
