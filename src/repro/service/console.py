"""Terminal ops console for a running admission service.

``python -m repro.service status`` fetches one snapshot from a
:class:`~repro.service.http.MetricsEndpoint` and prints it;
``python -m repro.service watch`` polls it on an interval and redraws,
top(1)-style.  Both talk plain HTTP (the endpoint's
``/metrics?format=json`` payload) through :mod:`urllib` - the console
can run on any machine that can reach the service, and needs nothing
installed beyond the standard library.

Like :mod:`repro.service.http`, this is exposition-layer code: it
reads the wall clock to compute scrape-to-scrape rates and to pace the
watch loop, and is DET010-allowlisted for it.  Nothing here can touch
journals, checkpoints, or the service's decision path.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional

#: Counters rendered as per-second rates in watch mode.
_RATE_KEYS = ("arrivals", "completed", "shed", "deferred", "dropped")


def fetch_status(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET the endpoint's JSON payload.

    Args:
        url: endpoint base URL (``http://host:port``) or a full
            ``/metrics`` URL.

    Raises:
        ConnectionError: the endpoint is unreachable or returned
            malformed JSON.
    """
    target = url.rstrip("/")
    if not target.endswith("/metrics"):
        target += "/metrics"
    target += "?format=json"
    import urllib.error  # the service itself never loads urllib
    import urllib.request

    try:
        with urllib.request.urlopen(target, timeout=timeout) as reply:
            return json.loads(reply.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        raise ConnectionError(
            f"cannot scrape {target}: {error}") from error


def render_status(payload: Dict[str, Any],
                  previous: Optional[Dict[str, Any]] = None) -> str:
    """The console frame for one scrape payload.

    With a ``previous`` payload, counter deltas divided by the scrape
    interval become live per-second rates; without one the frame shows
    cumulative totals only.
    """
    status = payload.get("status", {})
    metrics = payload.get("metrics", {})
    counters = status.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})

    lines = []
    done = " (done)" if status.get("done") else ""
    lines.append(f"repro.service :: policy={status.get('policy')} "
                 f"slot={status.get('slot')}{done}")
    pending = status.get("pending", 0)
    limit = status.get("queue_limit", 0)
    fill = f"{100.0 * pending / limit:.0f}%" if limit else "n/a"
    lines.append(f"queue    {pending}/{limit} ({fill} full), "
                 f"active={status.get('active', 0)}")
    last_ckpt = status.get("last_checkpoint_slot")
    every = status.get("checkpoint_every")
    if every is not None:
        where = "never" if last_ckpt is None else f"slot {last_ckpt}"
        lines.append(f"ckpt     {where} (every {every} slots)")

    rates = _rates(payload, previous)
    row = []
    for key in _RATE_KEYS:
        total = counters.get(key, 0.0)
        if rates is not None:
            row.append(f"{key}={total:.0f} ({rates.get(key, 0.0):.1f}/s)")
        else:
            row.append(f"{key}={total:.0f}")
    lines.append("totals   " + "  ".join(row))
    lines.append(f"reward   {counters.get('reward', 0.0):.2f} over "
                 f"{counters.get('slots', 0.0):.0f} slots")

    latency = (histograms.get("service_slot_latency_seconds")
               or status.get("slot_latency"))
    if latency and latency.get("count"):
        lines.append(
            "latency  p50={:.2f}ms p95={:.2f}ms p99={:.2f}ms "
            "(n={})".format(1000.0 * latency.get("p50", 0.0),
                            1000.0 * latency.get("p95", 0.0),
                            1000.0 * latency.get("p99", 0.0),
                            latency.get("count", 0)))

    alloc_current = gauges.get("service_alloc_current_kb")
    alloc_peak = gauges.get("service_alloc_peak_kb")
    if alloc_current is not None or alloc_peak is not None:
        lines.append(
            "alloc    current={:.0f}KiB peak={:.0f}KiB "
            "(tracemalloc watermark)".format(alloc_current or 0.0,
                                             alloc_peak or 0.0))

    bandit = {name: value for name, value in sorted(gauges.items())
              if name.startswith("bandit_")}
    if bandit:
        lines.append("bandit   " + "  ".join(
            f"{name[len('bandit_'):]}={value:.3g}"
            for name, value in bandit.items()))
    return "\n".join(lines)


def _rates(payload: Dict[str, Any],
           previous: Optional[Dict[str, Any]]
           ) -> Optional[Dict[str, float]]:
    if previous is None:
        return None
    elapsed = (payload.get("scraped_unix", 0.0)
               - previous.get("scraped_unix", 0.0))
    if elapsed <= 0:
        return None
    now = payload.get("status", {}).get("counters", {})
    then = previous.get("status", {}).get("counters", {})
    return {key: (now.get(key, 0.0) - then.get(key, 0.0)) / elapsed
            for key in _RATE_KEYS}


def run_status(url: str, timeout: float = 5.0) -> int:
    """One-shot console frame; exit code 0, or 2 when unreachable."""
    try:
        payload = fetch_status(url, timeout=timeout)
    except ConnectionError as error:
        print(error)
        return 2
    print(render_status(payload))
    return 0


def run_watch(url: str, interval: float = 2.0,
              iterations: Optional[int] = None,
              timeout: float = 5.0) -> int:
    """Poll and redraw until interrupted (or ``iterations`` frames).

    Keeps polling through transient scrape failures (the service may
    simply be between ticks of a heavy slot); exits 0 on Ctrl-C, 2
    only when the very first scrape fails.
    """
    previous: Optional[Dict[str, Any]] = None
    frames = 0
    try:
        while iterations is None or frames < iterations:
            try:
                payload = fetch_status(url, timeout=timeout)
            except ConnectionError as error:
                if previous is None:
                    print(error)
                    return 2
                payload = None
            if payload is not None:
                frame = render_status(payload, previous)
                # ANSI clear + home, then the frame - a flicker-free
                # redraw on any VT100-compatible terminal.
                print("\x1b[2J\x1b[H" + frame, flush=True)
                if payload.get("status", {}).get("done"):
                    return 0
                previous = payload
            frames += 1
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
