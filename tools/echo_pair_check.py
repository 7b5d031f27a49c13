#!/usr/bin/env python3
"""Pairs every synthesized design with its echoed netlist in one batch.

For each DESIGN.g in DUMPED_DIR without a DESIGN.eqn, copies the STG to
ECHO_DIR/DESIGN.g and writes the netlist that legacy single-design mode
(`check_hazard DESIGN.g`) prints to stderr as ECHO_DIR/DESIGN.eqn. Then
runs one batch, `check_hazard --jobs 4 --json DUMPED_DIR/*.g ECHO_DIR/*.g`
(each echoed STG picks up its sibling .eqn), and asserts that no design
failed and that each pair reports equal states, mg_components, gates,
constraints and per_gate. The two entries of a pair share one
decomposition in the batch's service.

usage: echo_pair_check.py CHECK_HAZARD DUMPED_DIR ECHO_DIR
"""
import glob
import json
import os
import shutil
import subprocess
import sys

KEYS = ("states", "mg_components", "gates", "constraints", "per_gate")
HEADER = "synthesized netlist:\n"


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    check_hazard, dumped, echo = sys.argv[1:]
    os.makedirs(echo, exist_ok=True)
    pairs = []
    for stg in sorted(glob.glob(os.path.join(dumped, "*.g"))):
        base = os.path.splitext(os.path.basename(stg))[0]
        if os.path.exists(os.path.join(dumped, base + ".eqn")):
            continue
        echoed = os.path.join(echo, base + ".g")
        shutil.copyfile(stg, echoed)
        legacy = subprocess.run([check_hazard, stg], capture_output=True,
                                text=True, check=True)
        assert legacy.stderr.startswith(HEADER), (stg, legacy.stderr)
        with open(os.path.join(echo, base + ".eqn"), "w") as out:
            out.write(legacy.stderr[len(HEADER):].strip() + "\n")
        pairs.append((stg, echoed))
    assert pairs, "no synthesized design in " + dumped

    batch = subprocess.run(
        [check_hazard, "--jobs", "4", "--json"] +
        sorted(glob.glob(os.path.join(dumped, "*.g"))) +
        sorted(glob.glob(os.path.join(echo, "*.g"))),
        capture_output=True, text=True, check=True)
    reports = {report["design"]: report for report in json.loads(batch.stdout)}
    errors = [name for name, report in reports.items() if "error" in report]
    assert not errors, errors
    differences = [(stg, key) for stg, echoed in pairs for key in KEYS
                   if reports[stg][key] != reports[echoed][key]]
    assert not differences, differences
    print(f"{len(reports)} reports, {len(pairs)} pairs, 0 differences")


if __name__ == "__main__":
    main()
