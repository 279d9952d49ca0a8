#!/usr/bin/env python3
"""Summarise or compare p5bench run records (the JSON files run.py writes).

    python3 p5bench/compare.py DIR         median and quartile spread per metric
    python3 p5bench/compare.py BASE NEW    BASE vs NEW medians per metric

Records are grouped by workload and trace mode. Bounds come from
BENCHMARK.json. A comparison is only made between like fingerprints (host,
build and device fields); when they differ the script names the fields and
exits 2 without computing a single ratio: a baseline from an unlike host is
re-recorded, not compared.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Fingerprint fields that must match for two records to be comparable. The
# seed, commit and source digest are expected to differ.
LIKE_FIELDS = ["nproc", "cpu_model", "escape_tier", "build_type", "device_tier", "sts",
               "io_batch", "seconds"]


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if "fingerprint" in rec and "result" in rec:
            records.append(rec)
    if not records:
        sys.exit("no run records in %s" % directory)
    return records


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: m for m in spec["per_layer"]}
    out.update({m["name"]: m for m in spec["end_to_end"]})
    return out


def unlike(records):
    """Fingerprint fields with more than one value across `records`."""
    diffs = {}
    for field in LIKE_FIELDS:
        values = sorted({json.dumps(r["fingerprint"].get(field)) for r in records})
        if len(values) > 1:
            diffs[field] = values
    return diffs


def groups(records):
    out = {}
    for r in records:
        fp = r["fingerprint"]
        out.setdefault((fp["workload"], fp["trace"]), []).append(r)
    return out


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def spread(v):
    med = statistics.median(v)
    if len(v) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(v, n=4)
    return med, (q[2] - q[0]) / abs(med)


def summarise(directory):
    records = load(directory)
    diffs = unlike(records)
    if diffs:
        print("UNLIKE FINGERPRINTS in %s: %s" % (directory, diffs))
        return 2
    spec = bounds()
    for (workload, trace), recs in sorted(groups(records).items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print("== %s trace=%d: %d runs, fail_ratio %.6f (%d of %d), correct in %d" %
              (workload, trace, len(recs), failed / attempted, failed, attempted,
               sum(r["result"]["correct"] for r in recs)))
        for metric in recs[0]["result"]["metrics"]:
            med, sp = spread(values(recs, metric))
            bound = spec.get(metric, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if sp <= bound / 3 else
                           "within bound" if sp <= bound else "WIDER THAN BOUND")
                verdict += " (bound %.2f)" % bound
            print("   %-42s median %14.6g  iqr/median %.4f  %s" % (metric, med, sp, verdict))
    return 0


def compare(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    diffs = unlike(base + new)
    if diffs:
        print("UNLIKE FINGERPRINTS between %s and %s: %s" % (base_dir, new_dir, diffs))
        print("no ratios computed; re-record the baseline on this host")
        return 2
    spec = bounds()
    worse_any = False
    gb, gn = groups(base), groups(new)
    for key in sorted(set(gb) & set(gn)):
        print("== %s trace=%d: %d base runs, %d new runs" % (key[0], key[1], len(gb[key]),
                                                            len(gn[key])))
        for metric in gb[key][0]["result"]["metrics"]:
            vb, vn = values(gb[key], metric), values(gn[key], metric)
            if not vb or not vn:
                continue
            mb, sb = spread(vb)
            mn, _ = spread(vn)
            m = spec.get(metric, {})
            line = "   %-42s base %14.6g  new %14.6g" % (metric, mb, mn)
            if mb != 0:
                ratio = mn / mb
                worse = (1 - ratio) if m.get("better") == "higher" else (ratio - 1)
                line += "  new/base %.4f (base %.6g)" % (ratio, mb)
                if "bound" in m:
                    if worse > m["bound"]:
                        line += "  WORSE BEYOND BOUND %.2f" % m["bound"]
                        worse_any = True
                    elif abs(mn - mb) / abs(mb) <= sb:
                        line += "  unresolved (within base spread %.4f)" % sb
            print(line)
    return 1 if worse_any else 0


def main():
    if len(sys.argv) == 2:
        return summarise(sys.argv[1])
    if len(sys.argv) == 3:
        return compare(sys.argv[1], sys.argv[2])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
