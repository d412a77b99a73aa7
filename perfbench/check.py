#!/usr/bin/env python3
"""Independent plan checker for soctest optimize reports.

A report is the JSON object `soctest optimize --json` writes and the daemon
embeds in its result lines. The checker recomputes every claim the report
makes from its own schedule, with no code shared with the program:

  * every core of the design is scheduled exactly once;
  * every entry sits on an existing bus, and no two tests overlap on a bus;
  * the bus widths sum to the architecture's total, which is at most W;
  * test_time equals the latest end;
  * data_volume_bits equals the sum of the per-core volume_bits;
  * a repeated request gives the same report, timing fields excluded.

Run this file directly to check the checker: it corrupts a valid report by
hand in each of those ways and fails unless every corruption is caught.
"""
import copy
import json
import sys

# Fields that may differ between identical requests.
TIMING_FIELDS = ("cpu_seconds", "runtime")


def check_report(rep, width, cores):
    """Returns the list of problems found in `rep` (empty when valid).

    `width` is the request's W; `cores` lists the design's core names.
    """
    problems = []
    try:
        buses = rep["architecture"]["buses"]
        total = rep["architecture"]["total_width"]
        entries = rep["schedule"]
        if sum(buses) != total:
            problems.append(f"bus widths sum to {sum(buses)}, "
                            f"architecture says {total}")
        if total > width:
            problems.append(f"bus widths use {total} wires, budget is {width}")
        if any(b < 1 for b in buses):
            problems.append("a bus has width < 1")

        names = [e["core"] for e in entries]
        if sorted(names) != sorted(cores):
            missing = sorted(set(cores) - set(names))
            extra = sorted(n for n in set(names) if names.count(n) > 1 or
                           n not in cores)
            problems.append(f"cores not scheduled exactly once "
                            f"(missing {missing[:3]}, repeated/unknown "
                            f"{extra[:3]})")

        by_bus = {}
        for e in entries:
            if not 0 <= e["bus"] < len(buses):
                problems.append(f"core {e['core']} on missing bus {e['bus']}")
                continue
            if e["start"] < 0 or e["end"] < e["start"]:
                problems.append(f"core {e['core']} has interval "
                                f"[{e['start']}, {e['end']})")
            by_bus.setdefault(e["bus"], []).append(e)
        for bus, es in by_bus.items():
            es.sort(key=lambda e: (e["start"], e["end"]))
            for a, b in zip(es, es[1:]):
                if b["start"] < a["end"]:
                    problems.append(f"cores {a['core']} and {b['core']} "
                                    f"overlap on bus {bus}")

        latest = max((e["end"] for e in entries), default=0)
        if rep["test_time"] != latest:
            problems.append(f"test_time {rep['test_time']} != latest end "
                            f"{latest}")
        volume = sum(e["volume_bits"] for e in entries)
        if rep["data_volume_bits"] != volume:
            problems.append(f"data_volume_bits {rep['data_volume_bits']} != "
                            f"sum of volume_bits {volume}")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def canonical(rep):
    """The report without timing fields, as a comparable string."""
    return json.dumps({k: v for k, v in rep.items() if k not in TIMING_FIELDS},
                      sort_keys=True)


def same_reports(reports):
    """True when every report in the list is identical, timing excluded."""
    return len({canonical(r) for r in reports}) <= 1


def _expect(cond, message):
    """An assert that `python3 -O` cannot strip."""
    if not cond:
        raise AssertionError(message)


def _corruptions(rep, width):
    """Hand-corrupted copies of a valid report, one per checked property."""
    _expect(len(rep["schedule"]) >= 2, "selftest needs a report with two cores")
    out = {}

    r = copy.deepcopy(rep)
    r["schedule"][1]["core"] = r["schedule"][0]["core"]
    out["duplicate core"] = r

    r = copy.deepcopy(rep)
    gone = r["schedule"].pop()
    r["data_volume_bits"] -= gone["volume_bits"]
    r["test_time"] = max(e["end"] for e in r["schedule"])
    out["missing core"] = r

    r = copy.deepcopy(rep)
    r["schedule"][1]["bus"] = r["schedule"][0]["bus"]
    r["schedule"][1]["start"] = r["schedule"][0]["start"]
    r["schedule"][1]["end"] = r["schedule"][0]["end"]
    r["test_time"] = max(e["end"] for e in r["schedule"])
    r["data_volume_bits"] = sum(e["volume_bits"] for e in r["schedule"])
    out["overlap on a bus"] = r

    r = copy.deepcopy(rep)
    r["architecture"]["buses"][0] += width
    r["architecture"]["total_width"] += width
    out["widths over budget"] = r

    r = copy.deepcopy(rep)
    r["architecture"]["total_width"] -= 1
    out["widths disagree with total"] = r

    r = copy.deepcopy(rep)
    r["schedule"][0]["bus"] = len(r["architecture"]["buses"])
    out["bus out of range"] = r

    r = copy.deepcopy(rep)
    r["test_time"] += 1
    out["test_time not latest end"] = r

    r = copy.deepcopy(rep)
    r["data_volume_bits"] += 1
    out["volume not the sum"] = r

    r = copy.deepcopy(rep)
    del r["schedule"]
    out["malformed"] = r

    return out


def selftest(rep, width, cores):
    """Raises AssertionError unless `rep` passes and every corruption fails."""
    problems = check_report(rep, width, cores)
    _expect(not problems, f"valid report rejected: {problems}")
    for what, bad in _corruptions(rep, width).items():
        _expect(check_report(bad, width, cores), f"checker missed: {what}")
    changed = copy.deepcopy(rep)
    changed["schedule"][0]["m"] += 1
    _expect(not same_reports([rep, changed]), "checker missed: changed repeat")
    timed = copy.deepcopy(rep)
    timed["cpu_seconds"] = 1.5
    _expect(same_reports([rep, timed]), "timing fields must not count")


# A hand-written two-bus, three-core plan for the standalone selftest.
EXAMPLE = {
    "soc": "example", "mode": "decompressor-per-core",
    "constraint": "TAM-width", "test_time": 70, "data_volume_bits": 600,
    "peak_power_mw": 1.0, "cpu_seconds": 0,
    "architecture": {"total_width": 8, "buses": [5, 3]},
    "wiring": {"onchip_wires": 8, "ate_channels": 8, "decompressors": 0,
               "flip_flops": 0, "gates": 0},
    "schedule": [
        {"core": "a", "bus": 0, "start": 0, "end": 40, "mode": "compressed",
         "technique": "selective-encoding", "w": 5, "m": 9,
         "volume_bits": 300},
        {"core": "b", "bus": 0, "start": 40, "end": 70, "mode": "direct",
         "technique": "none", "w": 5, "m": 0, "volume_bits": 200},
        {"core": "c", "bus": 1, "start": 0, "end": 65, "mode": "direct",
         "technique": "none", "w": 3, "m": 0, "volume_bits": 100},
    ],
}

if __name__ == "__main__":
    selftest(EXAMPLE, 8, ["a", "b", "c"])
    print("check.py: every corruption caught")
    sys.exit(0)
