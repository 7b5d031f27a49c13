#!/usr/bin/env python3
"""Drive sitime_serve and validate its observability surface end to end.

Usage: metrics_check.py SERVE_BINARY

One stdio server (--slow-ms 1) gets a cold pass over embedded benchmarks,
a traced request, a warm repeat pass, and a {"metrics": true} /
{"stats": true} scrape pair after each pass. The checks:

  - every scrape parses as Prometheus text exposition format 0.0.4
    (HELP/TYPE headers, sample syntax, a TYPE for every sample family);
  - histogram buckets are cumulative in `le` order and end at
    +Inf == _count;
  - counters never move backwards between the two scrapes;
  - the traffic left its marks: non-zero per-phase latency histogram
    counts, non-zero queue-wait observations, and design-cache
    hit/miss counters that agree exactly with the {"stats": true}
    snapshot taken next to the scrape;
  - every cold derive projected each job at most once: its verify
    filled the local-STG memo and its derive only read it, and the warm
    pass projected nothing;
  - the exact-bytes index: no cold request matched it, and every warm
    repeat (byte-identical to its cold request) did;
  - the traced request returns spans naming every phase run, fitting
    inside the total handling time;
  - --slow-ms 1 logged at least one span breakdown to stderr;
  - `sitime_serve --metrics` prints a one-shot catalog that passes the
    same syntax validation.
"""
import json
import math
import re
import subprocess
import sys

BENCHES = ["adfast", "ebergen", "fifo", "chu133", "converta"]

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{[a-zA-Z0-9_\"=,.+\- ]*\})?"         # optional {labels}
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|Inf)|NaN|\+Inf)$"
)
HEADER_RE = re.compile(
    r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$"
)


def family_of(name, typed):
    """The family a sample belongs to: histogram samples carry a
    _bucket/_sum/_count suffix on top of the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in typed:
            return name[: -len(suffix)]
    return name


def parse_exposition(text):
    """Validates the text format; returns (types, samples) where samples
    maps (name, labels) -> float value."""
    typed = {}
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            header = HEADER_RE.match(line)
            assert header, f"malformed comment line: {line!r}"
            if header.group(1) == "TYPE":
                kind = (header.group(3) or "").strip()
                assert kind in ("counter", "gauge", "histogram"), line
                assert header.group(2) not in typed, f"duplicate TYPE: {line!r}"
                typed[header.group(2)] = kind
            continue
        sample = SAMPLE_RE.match(line)
        assert sample, f"malformed sample line: {line!r}"
        name, labels = sample.group(1), sample.group(2) or ""
        family = family_of(name, typed)
        assert family in typed, f"sample without a # TYPE: {line!r}"
        key = (name, labels)
        assert key not in samples, f"duplicate sample: {line!r}"
        value = sample.group(3)
        samples[key] = math.inf if value in ("+Inf", "Inf") else float(value)
    check_histograms(typed, samples)
    return typed, samples


def check_histograms(typed, samples):
    """Buckets cumulative and non-decreasing in le order, +Inf == _count."""
    series = {}  # (family, labels-minus-le) -> [(le, value)]
    for (name, labels), value in samples.items():
        if not name.endswith("_bucket"):
            continue
        family = name[: -len("_bucket")]
        assert typed.get(family) == "histogram", name
        le = re.search(r'le="([^"]+)"', labels)
        assert le, f"bucket without le: {name}{labels}"
        bound = math.inf if le.group(1) == "+Inf" else float(le.group(1))
        rest = re.sub(r',?le="[^"]+"', "", labels).replace("{}", "")
        series.setdefault((family, rest), []).append((bound, value))
    assert series, "no histogram buckets in the exposition"
    for (family, rest), buckets in series.items():
        buckets.sort()
        assert buckets[-1][0] == math.inf, f"{family}{rest} lacks +Inf"
        values = [v for _, v in buckets]
        assert values == sorted(values), (
            f"non-cumulative buckets for {family}{rest}: {values}"
        )
        count = samples.get((family + "_count", rest))
        assert count is not None, f"{family}{rest} lacks _count"
        assert values[-1] == count, (
            f"+Inf bucket != count for {family}{rest}: {values[-1]} {count}"
        )


def counter_value(samples, family, label_re=""):
    """Sum of a counter family's samples whose labels match label_re."""
    return sum(
        value
        for (name, labels), value in samples.items()
        if name == family and re.search(label_re, labels)
    )


def check_spans(traced):
    spans = traced.get("spans")
    assert spans, f"traced response has no spans: {traced}"
    names = [span["name"] for span in spans]
    assert names[0] == "queue_wait", names
    assert spans[0]["start"] == 0.0, spans[0]
    for phase in traced["phases_run"].split("+"):
        assert phase in names, (phase, names)
    # Spans fit inside the total handling time (queue wait + service).
    total = spans[0]["seconds"] + traced["seconds"] + 1e-5
    for span in spans:
        assert span["start"] + span["seconds"] <= total, (span, total)
    nested = [span for span in spans if span.get("in")]
    assert any(span["name"] == "expand" for span in nested), names


def main():
    serve = sys.argv[1]

    requests = []
    requests += [{"id": f"c-{b}", "design": {"bench": b}} for b in BENCHES]
    requests.append(
        {"id": "t", "design": {"bench": "vbe5c"}, "trace_spans": True}
    )
    requests.append({"id": "m1", "metrics": True})
    requests.append({"id": "s1", "stats": True})
    requests += [{"id": f"h-{b}", "design": {"bench": b}} for b in BENCHES]
    requests.append({"id": "m2", "metrics": True})
    requests.append({"id": "s2", "stats": True})

    # --admit 1 keeps handling strictly sequential, so each scrape sees
    # everything sent before it and the warm pass is all plain hits.
    proc = subprocess.run(
        [serve, "--jobs", "2", "--admit", "1", "--slow-ms", "1"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True,
        text=True,
        check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert len(lines) == len(requests), (len(lines), len(requests))
    by_id = {line["id"]: line for line in lines}
    bad = [line for line in lines if not line["ok"]]
    assert not bad, bad

    # Both scrapes are well-formed expositions; counters never regress.
    typed1, scrape1 = parse_exposition(by_id["m1"]["metrics"])
    typed2, scrape2 = parse_exposition(by_id["m2"]["metrics"])
    for key, value in scrape1.items():
        family = family_of(key[0], typed1)
        if typed1[family] != "counter" and not key[0].endswith(
            ("_count", "_sum", "_bucket")
        ):
            continue
        assert key in scrape2, f"series vanished between scrapes: {key}"
        assert scrape2[key] >= value - 1e-9, (
            f"counter went backwards: {key} {value} -> {scrape2[key]}"
        )

    # The traffic left its marks in the right families.
    phase_runs = counter_value(scrape2, "sitime_phase_seconds_count")
    assert phase_runs > 0, "no per-phase histogram observations"
    cold_runs = counter_value(
        scrape2, "sitime_phase_seconds_count", r'source="cold"'
    )
    assert cold_runs > 0, "cold pass recorded no cold-source observations"
    # Every line (control requests included) waits in the admission
    # queue; the final stats line had not been dequeued when the second
    # scrape rendered.
    queue_waits = counter_value(scrape2, "sitime_queue_wait_seconds_count")
    assert queue_waits == len(requests) - 1, (queue_waits, len(requests))

    # The registry and the legacy stats snapshot agree exactly — they
    # read the same counters.
    stats2 = by_id["s2"]["stats"]
    hits = counter_value(
        scrape2, "sitime_design_cache_requests_total", r'outcome="hit"'
    )
    misses = counter_value(
        scrape2, "sitime_design_cache_requests_total", r'outcome="miss"'
    )
    assert hits == stats2["hits"] == len(BENCHES), (hits, stats2)
    assert misses == stats2["misses"] == len(BENCHES) + 1, (misses, stats2)
    assert by_id["s2"]["uptime_seconds"] >= 0.0, by_id["s2"]
    assert by_id["s2"]["queue_depth"] == 0, by_id["s2"]

    # The decomposition-cache level: the cold pass decomposed each of the
    # six distinct STGs once (all misses, all retained); the warm pass is
    # answered at the design level and never reaches the decompose phase,
    # so the counters sit exactly where the cold pass left them — and the
    # registry agrees with the snapshot.
    decomp_hits = counter_value(scrape2, "sitime_decomp_cache_hits_total")
    decomp_misses = counter_value(
        scrape2, "sitime_decomp_cache_misses_total"
    )
    assert decomp_hits == stats2["decomp_hits"] == 0, (decomp_hits, stats2)
    assert decomp_misses == stats2["decomp_misses"] == len(BENCHES) + 1, (
        decomp_misses,
        stats2,
    )
    decomp_entries = counter_value(scrape2, "sitime_decomp_cache_entries")
    assert decomp_entries == stats2["decomp_entries"] == len(BENCHES) + 1, (
        decomp_entries,
        stats2,
    )

    # The persistent-store families are always registered (zero-valued
    # gauge-reads of the disabled store here — this server has no
    # --cache-dir, so nothing may count).
    for family in (
        "sitime_disk_store_writes_total",
        "sitime_disk_store_write_errors_total",
        "sitime_disk_store_loads_total",
        "sitime_disk_store_load_skips_total",
        "sitime_disk_store_load_corrupt_total",
    ):
        assert family in typed2, f"missing disk-store family: {family}"
        assert counter_value(scrape2, family) == 0, (family, scrape2)
    assert stats2["disk_writes"] == stats2["disk_loads"] == 0, stats2

    # Every local state-graph build observes one latency histogram; the
    # flows above built local SGs, so the family must exist and hold at
    # least one observation.
    assert typed2.get("sitime_sg_build_seconds") == "histogram", typed2
    sg_builds = counter_value(scrape2, "sitime_sg_build_seconds_count")
    assert sg_builds > 0, "no sg build observations"

    # The local-STG memo: each cold design's verify projected every job
    # into the job's memo slot (misses) and its derive ran every job on
    # the projection its slot held (hits); the warm pass runs no phase, so
    # neither counter moves between the scrapes.
    memo = {}
    for outcome in ("hits", "misses"):
        family = f"sitime_local_stg_memo_{outcome}_total"
        assert typed2.get(family) == "counter", (family, typed2.get(family))
        memo[outcome] = counter_value(scrape2, family)
        assert memo[outcome] == counter_value(scrape1, family), (
            family,
            counter_value(scrape1, family),
            memo[outcome],
        )
    assert memo["misses"] > 0, memo
    assert memo["hits"] >= memo["misses"], memo

    # The job-outcome memo: each cold design's verify and derive computed
    # every job's outcome (misses; a cold derive finds only verdicts), and
    # the warm pass runs no phase, so neither family moves between the
    # scrapes.
    for outcome in ("hits", "misses"):
        family = f"sitime_job_outcome_memo_{outcome}_total"
        assert typed2.get(family) == "counter", (family, typed2.get(family))
        for phase in ("verify", "derive"):
            labels = f'phase="{phase}"'
            assert counter_value(scrape2, family, labels) == counter_value(
                scrape1, family, labels
            ), (family, phase, scrape1, scrape2)
    for phase in ("verify", "derive"):
        misses = counter_value(
            scrape2, "sitime_job_outcome_memo_misses_total", f'phase="{phase}"'
        )
        assert misses > 0, (phase, misses)

    # The exact-bytes index: the cold pass sent each design's bytes once,
    # so nothing matched; every warm request repeats its cold request's
    # bytes and skips the parse.
    exact = "sitime_exact_request_hits_total"
    assert typed2.get(exact) == "counter", (exact, typed2.get(exact))
    assert counter_value(scrape1, exact) == 0, counter_value(scrape1, exact)
    warm_requests = sum(1 for r in requests if r["id"].startswith("h-"))
    assert (
        counter_value(scrape2, exact) - counter_value(scrape1, exact)
        == warm_requests
    ), (counter_value(scrape2, exact), warm_requests)

    check_spans(by_id["t"])

    # Cold flow runs take ≥ 1 ms, so --slow-ms 1 must have logged some.
    assert "slow request" in proc.stderr, proc.stderr

    # The one-shot catalog passes the same syntax validation.
    catalog = subprocess.run(
        [serve, "--metrics"], capture_output=True, text=True, check=True
    )
    typed_catalog, _ = parse_exposition(catalog.stdout)
    assert "sitime_phase_seconds" in typed_catalog, typed_catalog
    assert "sitime_sg_build_seconds" in typed_catalog, typed_catalog
    assert "sitime_decomp_cache_hits_total" in typed_catalog, typed_catalog
    assert "sitime_local_stg_memo_misses_total" in typed_catalog, (
        typed_catalog
    )
    assert "sitime_disk_store_loads_total" in typed_catalog, typed_catalog
    assert "sitime_exact_request_hits_total" in typed_catalog, typed_catalog
    assert "sitime_job_outcome_memo_hits_total" in typed_catalog, (
        typed_catalog
    )
    assert "sitime_job_outcome_memo_misses_total" in typed_catalog, (
        typed_catalog
    )

    print(
        f"metrics OK: {len(BENCHES)} designs cold+warm, 2 scrapes "
        f"well-formed ({len(typed2)} families), counters monotone, "
        f"{int(phase_runs)} phase observations, spans traced, "
        f"slow-request log seen, one-shot catalog valid"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
