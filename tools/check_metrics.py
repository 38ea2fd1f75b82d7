#!/usr/bin/env python3
"""CI smoke check for the watchmand /metrics endpoint.

Scrapes http://HOST:PORT/metrics, validates the exposition's basic
structure (HELP/TYPE before samples, histogram +Inf == _count), and
requires the cache / facade / server metric families to be present.
Exits non-zero with a reason on any failure. Stdlib only.

Usage:
  tools/check_metrics.py --port 9090 [--host 127.0.0.1]
                         [--require-shed] [--expect-backend epoll]
"""

import argparse
import sys
import urllib.error
import urllib.request

REQUIRED_FAMILIES = (
    "watchman_cache_lookups_total",
    "watchman_cache_used_bytes",
    "watchman_facade_executions_total",
    "watchman_server_requests_total",
    "watchman_server_request_seconds",
    "watchman_server_connections_active",
    "watchman_server_info",
    # Overload protection / graceful degradation (PR 8): load-shed
    # counters by reason, the buffered-output memory gauge, admin
    # listener hardening counters, facade degradation counters and the
    # payload-store circuit breaker.
    "watchman_server_shed_total",
    "watchman_server_shed_retry_hint_ms",
    "watchman_server_output_buffered_bytes",
    "watchman_server_admin_rejected_total",
    "watchman_server_admin_timeouts_total",
    "watchman_facade_executor_failures_total",
    "watchman_facade_store_failures_total",
    "watchman_facade_degraded_passthrough_total",
    "watchman_store_breaker_state",
    "watchman_store_breaker_trips_total",
    "watchman_store_breaker_rejected_total",
)

# Series that must be present (with any value) when --require-shed is
# passed: the CI chaos job drives a quota-exceeding client first, so a
# scrape that cannot see the shed path means the counters are not wired.
SHED_SERIES_PREFIX = 'watchman_server_shed_total{reason="'

INFO_SERIES = "watchman_server_info{"


def label_value(series, name):
    """The value of label `name` in a sample's series, or None."""
    labels = series[series.index("{") + 1:series.rindex("}")]
    for pair in labels.split(","):
        key, _, value = pair.partition("=")
        if key == name:
            return value.strip('"')
    return None


def fail(reason):
    print("check_metrics: FAIL: %s" % reason, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument(
        "--require-shed", action="store_true",
        help="additionally require a non-zero peer_quota shed counter "
             "(the caller must have driven a quota-exceeding client)")
    parser.add_argument(
        "--expect-backend", metavar="NAME",
        help="require the backend label of watchman_server_info to be NAME "
             "(the event loop that actually serves)")
    args = parser.parse_args()
    url = "http://%s:%d/metrics" % (args.host, args.port)

    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            content_type = resp.headers.get("Content-Type", "")
            text = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as e:
        fail("scrape %s: %s" % (url, e))

    if "text/plain" not in content_type or "version=0.0.4" not in content_type:
        fail("unexpected Content-Type: %r" % content_type)

    declared = {}      # family name -> type
    current = None
    seen_samples = set()
    histograms = {}    # (family, labels-minus-le) -> [(le, cum), count]
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if parts[1] == "TYPE":
                    declared[name] = parts[3] if len(parts) > 3 else ""
                current = name
            continue
        metric, _, value_part = line.rpartition(" ")
        if not metric:
            fail("sample line without value: %r" % line)
        try:
            value = float(value_part)
        except ValueError:
            fail("unparseable value in line: %r" % line)
        name = metric.split("{", 1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
        if current is None or base != current:
            fail("sample %r outside its HELP/TYPE block" % name)
        if metric in seen_samples:
            fail("duplicate series: %r" % metric)
        seen_samples.add(metric)
        if declared.get(base) == "histogram" and name.endswith("_bucket"):
            labels = metric[len(name):].strip("{}")
            pairs = [p for p in labels.split(",") if not p.startswith('le="')]
            le = [p for p in labels.split(",") if p.startswith('le="')]
            if not le:
                fail("bucket without le label: %r" % line)
            bound = le[0][4:-1]
            key = (base, tuple(pairs))
            histograms.setdefault(key, []).append((bound, value))
        elif declared.get(base) == "histogram" and name.endswith("_count"):
            labels = metric[len(name):].strip("{}")
            key = (base, tuple(p for p in labels.split(",") if p))
            histograms.setdefault(("count:" + base, key[1]), []).append(
                ("", value))

    for (family, labels), buckets in list(histograms.items()):
        if family.startswith("count:"):
            continue
        inf = [v for bound, v in buckets if bound == "+Inf"]
        if not inf:
            fail("histogram %s{%s} missing +Inf bucket" %
                 (family, ",".join(labels)))
        counts = histograms.get(("count:" + family, labels))
        if counts and counts[0][1] != inf[0]:
            fail("histogram %s{%s}: +Inf (%s) != _count (%s)" %
                 (family, ",".join(labels), inf[0], counts[0][1]))

    missing = [f for f in REQUIRED_FAMILIES if f not in declared]
    if missing:
        fail("missing metric families: %s" % ", ".join(missing))

    if args.require_shed:
        shed = 0.0
        for line in text.splitlines():
            if line.startswith(SHED_SERIES_PREFIX + 'peer_quota"'):
                shed += float(line.rpartition(" ")[2])
        if shed <= 0:
            fail("--require-shed: peer_quota shed counter is zero "
                 "(did the quota-exceeding client run?)")

    if args.expect_backend is not None:
        backends = [label_value(line.rpartition(" ")[0], "backend")
                    for line in text.splitlines()
                    if line.startswith(INFO_SERIES)]
        if backends != [args.expect_backend]:
            fail("--expect-backend %s: watchman_server_info reports %s" %
                 (args.expect_backend, backends or "no backend"))

    print("check_metrics: OK (%d families, %d series)" %
          (len(declared), len(seen_samples)))


if __name__ == "__main__":
    main()
