#!/usr/bin/env python3
"""Replay a dumped design directory through sitime_serve, twice, and assert
the cache contract: the first pass runs every flow fresh, the second pass is
answered entirely from the design cache with byte-identical report JSON.

Usage: serve_replay_check.py SERVE_BINARY DESIGN_DIR
           [--warm] [--mutate] [--cache-dir [DIR]]

With --warm the server preloads the embedded benchmark suite first, so BOTH
passes must be all cache hits (the dumped directory is that same suite).

With --cache-dir the replay exercises the restart-survival contract of the
persistent warm store instead: serve the suite cold on a server started
with --cache-dir, SIGKILL it the moment the last response is read (a
crash, not a drain — the spill must already be durable), then start a
fresh server over the same directory and assert the second pass is served
entirely from disk (every response a "hit", disk_loads == designs, zero
decompose/verify/derive re-runs) with report JSON byte-identical to the
cold pass. DIR is optional; without it a temp directory is used and
removed afterwards.

With --mutate the replay exercises shared decompositions instead: after
replaying the suite once, every design with a dumped netlist is re-sent
once per gate with that gate's equation edited (its first cube
duplicated — same function, different text, so the whole-design key misses
while the STG stays put). The edited passes must all run "fresh" (no
design-cache hit), must each share the decomposition a resident entry of
the same STG already holds (decomp_hits grows by exactly the number of
edits and decompose_runs does not move — the netlist-only edits never
rebuild the global SG), and must produce reports byte-identical to the
same edits on a second, cold server process.
"""
import glob
import json
import shutil
import subprocess
import sys
import tempfile


def run_serve(serve, requests, warm=False, extra=None):
    """One sitime_serve process over `requests`; returns parsed lines."""
    command = (
        [serve, "--jobs", "2", "--admit", "1"]
        + (["--warm"] if warm else [])
        + (extra or [])
    )
    text = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run(
        command, input=text, capture_output=True, text=True, check=True
    )
    lines = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert len(lines) == len(requests), (len(lines), len(requests))
    bad = [l for l in lines if not l["ok"]]
    assert not bad, bad
    return lines


def run_serve_then_kill(serve, extra, requests):
    """One sitime_serve process over `requests`, SIGKILLed (not drained)
    the moment the last response line is read. Models a crash/deploy: any
    state the server wanted to keep must already be durable on disk."""
    command = [serve, "--jobs", "2", "--admit", "1"] + extra
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        for request in requests:
            proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        lines = [json.loads(proc.stdout.readline()) for _ in requests]
    finally:
        proc.kill()
        proc.wait()
    bad = [l for l in lines if not l["ok"]]
    assert not bad, bad
    return lines


def restart_check(serve, design_dir, cache_dir):
    designs = sorted(glob.glob(design_dir + "/*.g"))
    assert designs, f"no .g designs in {design_dir}"
    suite = [{"id": i, "design": path} for i, path in enumerate(designs)]
    extra = ["--cache-dir", cache_dir]

    # Pass 1: cold server with the persistent store, killed mid-flight.
    first = run_serve_then_kill(serve, extra, suite)
    not_fresh = [
        (l.get("id"), l["cache"]) for l in first if l["cache"] != "fresh"
    ]
    assert not not_fresh, f"cold pass not all fresh: {not_fresh}"
    stats = first[-1]["cache_stats"]
    assert stats["disk_writes"] == len(designs), stats
    assert stats["disk_write_errors"] == 0, stats
    spilled = glob.glob(cache_dir + "/*.sit")
    assert len(spilled) == len(designs), (len(spilled), len(designs))
    assert not glob.glob(cache_dir + "/*.tmp"), "temp files left behind"

    # Pass 2: a brand-new process over the same directory. Everything must
    # come back from disk: all hits, zero phase re-runs of ANY kind.
    second = run_serve(serve, suite, extra=extra)
    not_hit = [
        (l.get("id"), l["cache"]) for l in second if l["cache"] != "hit"
    ]
    assert not not_hit, f"restarted pass not all disk hits: {not_hit}"
    stats = second[-1]["cache_stats"]
    assert stats["disk_loads"] == len(designs), stats
    assert stats["disk_load_skips"] == 0, stats
    assert stats["disk_load_corrupt"] == 0, stats
    assert stats["decompose_runs"] == 0, stats
    assert stats["verify_runs"] == 0, stats
    assert stats["derive_runs"] == 0, stats
    assert stats["misses"] == 0, stats
    assert stats["hits"] == len(designs), stats

    for cold, warm in zip(first, second):
        assert cold["key"] == warm["key"], cold.get("id")
        assert cold["report"] == warm["report"], (
            f"report drift across restart for {cold.get('id')}"
        )

    print(
        f"serve restart OK: {len(designs)} designs spilled, server killed, "
        f"restart served all {len(designs)} from disk "
        f"(0 phase re-runs, reports byte-identical)"
    )
    return 0


def duplicate_first_cube(eqn, gate):
    """The editor's keystroke: duplicate the first cube of `gate`'s
    equation. The gate computes the same function, so the constraints are
    unchanged, but the canonical netlist text (and the whole-design key)
    differs."""
    lhs = gate + " = "
    at = eqn.index(lhs)
    rhs = at + len(lhs)
    plus = eqn.find("+", rhs)
    semi = eqn.index(";", rhs)
    end = semi if plus == -1 or semi < plus else plus
    first = eqn[rhs:end].strip()
    return eqn[:rhs] + first + " + " + eqn[rhs:]


def mutate_check(serve, design_dir):
    designs = sorted(glob.glob(design_dir + "/*.g"))
    assert designs, f"no .g designs in {design_dir}"
    suite = [{"id": i, "design": path} for i, path in enumerate(designs)]

    edits = []
    for eqn_path in sorted(glob.glob(design_dir + "/*.eqn")):
        with open(eqn_path) as f:
            eqn = f.read()
        with open(eqn_path[:-4] + ".g") as f:
            astg = f.read()
        gates = [
            line.split(" = ")[0]
            for line in eqn.splitlines()
            if " = " in line
        ]
        assert gates, f"no equations in {eqn_path}"
        for gate in gates:
            edits.append(
                {
                    "id": len(suite) + len(edits),
                    "design": {
                        "name": f"{eqn_path}#edit-{gate}",
                        "astg": astg,
                        "eqn": duplicate_first_cube(eqn, gate),
                    },
                }
            )
    assert edits, f"no dumped netlists (*.eqn) to mutate in {design_dir}"

    # Warm server: suite first (primes both cache tiers), then the edits.
    lines = run_serve(serve, suite + edits)
    replay, edited = lines[: len(suite)], lines[len(suite):]
    # Every edit must MISS the design cache (the text changed) ...
    not_fresh = [
        (l.get("id"), l["cache"]) for l in edited if l["cache"] != "fresh"
    ]
    assert not not_fresh, f"edited designs not fresh: {not_fresh}"
    # The STG never changed, so EVERY edit reuses the suite pass's cached
    # decomposition — and no edit rebuilds the global SG (decompose_runs
    # counts actual decompose executions, and it must not move).
    primed = replay[-1]["cache_stats"]
    after = edited[-1]["cache_stats"]
    decomp_hits = after["decomp_hits"] - primed["decomp_hits"]
    assert decomp_hits == len(edits), (decomp_hits, len(edits), after)
    assert after["decompose_runs"] == primed["decompose_runs"], (
        primed["decompose_runs"],
        after["decompose_runs"],
    )

    # Cold server: the same edits with nothing primed. The reports must be
    # byte-identical — a reused decomposition can never change an output
    # byte.
    cold = run_serve(serve, edits)
    for warm_line, cold_line in zip(edited, cold):
        assert warm_line["key"] == cold_line["key"], warm_line.get("id")
        assert warm_line["report"] == cold_line["report"], (
            f"report drift for edit {warm_line.get('id')}"
        )

    print(
        f"serve mutate OK: {len(suite)} designs replayed, "
        f"{len(edits)} single-gate edits all fresh with {decomp_hits} "
        f"decomposition reuses (no global-SG rebuild), reports "
        f"byte-identical to a cold server"
    )
    return 0


def main() -> int:
    serve = sys.argv[1]
    design_dir = sys.argv[2]
    warm = "--warm" in sys.argv[3:]
    if "--mutate" in sys.argv[3:]:
        return mutate_check(serve, design_dir)
    if "--cache-dir" in sys.argv[3:]:
        tail = sys.argv[3:]
        at = tail.index("--cache-dir")
        explicit = (
            tail[at + 1]
            if at + 1 < len(tail) and not tail[at + 1].startswith("--")
            else None
        )
        cache_dir = explicit or tempfile.mkdtemp(prefix="sitime_cache_")
        try:
            return restart_check(serve, design_dir, cache_dir)
        finally:
            if explicit is None:
                shutil.rmtree(cache_dir, ignore_errors=True)

    designs = sorted(glob.glob(design_dir + "/*.g"))
    assert designs, f"no .g designs in {design_dir}"
    requests = "".join(
        json.dumps({"id": i, "design": path}) + "\n"
        for i, path in enumerate(designs * 2)
    )

    # --admit 1 keeps the two passes strictly sequential so every repeat is
    # a plain "hit" (concurrent admission could legitimately coalesce).
    command = [serve, "--jobs", "2", "--admit", "1"] + (
        ["--warm"] if warm else []
    )
    proc = subprocess.run(
        command, input=requests, capture_output=True, text=True, check=True
    )
    lines = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert len(lines) == 2 * len(designs), (len(lines), len(designs))
    bad = [l for l in lines if not l["ok"]]
    assert not bad, bad

    first, second = lines[: len(designs)], lines[len(designs):]
    if warm:
        not_hit = [(l["design"], l["cache"]) for l in first if l["cache"] != "hit"]
        assert not not_hit, f"warm pass 1 not all hits: {not_hit}"
    else:
        not_fresh = [
            (l["design"], l["cache"]) for l in first if l["cache"] != "fresh"
        ]
        assert not not_fresh, f"pass 1 not all fresh: {not_fresh}"
    not_hit = [(l["design"], l["cache"]) for l in second if l["cache"] != "hit"]
    assert not not_hit, f"pass 2 not all cache hits: {not_hit}"

    for a, b in zip(first, second):
        assert a["key"] == b["key"], (a["design"], a["key"], b["key"])
        assert a["report"] == b["report"], f"report drift for {a['design']}"
        assert a["speed_independent"] and b["speed_independent"], a["design"]

    # The dumped directory IS the embedded suite, so warming runs each
    # design exactly once and both replay passes must hit; without warming
    # pass 1 is the only source of misses.
    stats = second[-1]["cache_stats"]
    assert stats["misses"] == len(designs), stats
    assert stats["hits"] == len(designs) * (2 if warm else 1), stats

    print(
        f"serve replay OK: {len(designs)} designs x2, "
        f"second pass all cache hits, reports byte-identical "
        f"(warm={str(warm).lower()})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
