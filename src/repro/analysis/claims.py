"""Paper claims as checked data: one table, four verdicts (Layer 6).

:data:`CLAIMS` states each qualitative result of the paper once: a
reference (arXiv:1912.08968 unless it names the deployment paper,
arXiv:2310.03742), the statement with the paper's number where it gives
one, what it reads, and a predicate.  A figure family (``fig6``,
``buffers``, ``oversub``, ``workload``, ``fault``) reads one campaign's
:class:`RowTable` and ``fig9`` its :class:`MetricsTable`; an analytic
experiment (``table2``, ``fig11-cost``, ...) reads its
``ExperimentResult``.  A predicate returns :data:`REPRODUCED`,
:data:`NOT_REPRODUCED`, :data:`INCONCLUSIVE` (the data cannot decide)
or :data:`UNTESTED` (inputs absent), with a one-line detail.

One saturation rule: a curve saturates at
:func:`~repro.analysis.frames.saturation_point`, somewhere above the
load measured before it; one that never saturates reads "not saturated
through <last load>".  A comparison is decided only when those ranges
do not overlap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

from repro.analysis.frames import (
    Curve, MetricsTable, RowTable, fault_sweeps, saturation_point,
)

REPRODUCED = "reproduced"
NOT_REPRODUCED = "not reproduced"
INCONCLUSIVE = "inconclusive"
UNTESTED = "untested"
#: The four verdicts, in the order REPORT.md counts them.
VERDICTS = (REPRODUCED, NOT_REPRODUCED, INCONCLUSIVE, UNTESTED)

#: Campaign-name prefix -> the figure family its open-loop rows draw.
FAMILY_PREFIXES = (
    ("fig6", "fig6"), ("fig9", "fig9"), ("fig8a", "buffers"),
    ("fig8-oversub", "oversub"), ("workload-completion", "workload"),
    ("fault", "fault"),
)


@dataclass(frozen=True)
class Claim:
    """One statement of a paper; ``check(data)`` returns ``(verdict, detail)``."""

    id: str
    ref: str
    reads: str
    statement: str
    check: Callable

    def evaluate(self, data, evidence: str = "") -> "Verdict":
        """The verdict over ``data``; data lacking a table, column or
        curve the predicate looks up reads untested."""
        try:
            status, detail = self.check(data)
        except LookupError as exc:
            status, detail = UNTESTED, f"input lacks {exc.args[0] if exc.args else exc}"
        return Verdict(self, status, detail, evidence)


@dataclass(frozen=True)
class Verdict:
    """The outcome of one claim over the input ``evidence`` names."""

    claim: Claim
    status: str
    detail: str
    evidence: str = ""

    def line(self) -> str:
        """The note form, which :func:`parse` reads back."""
        c = self.claim
        return f"{self.status} [{c.id}]: {c.statement} ({c.ref}) — {self.detail}"


def family(campaign: str, engine: str = "open") -> str:
    """The figure family of a campaign's rows: ``workload`` for closed
    loop, else by name prefix (:data:`FAMILY_PREFIXES`) or ``generic``."""
    if engine == "closed":
        return "workload"
    return next((f for p, f in FAMILY_PREFIXES if campaign.startswith(p)), "generic")


def evaluate(reads: str, data, evidence: str = "") -> list[Verdict]:
    """The verdicts of every claim reading ``reads``, over ``data``."""
    return [c.evaluate(data, evidence) for c in CLAIMS if c.reads == reads]


def note(result, reads: str | None = None, data=None) -> list[Verdict]:
    """Add the verdicts of the claims reading ``reads`` over ``data`` to
    ``result.notes``; analytic experiments call ``note(result)``, whose
    claims read the result, keyed by its experiment id."""
    verdicts = evaluate(reads or result.experiment,
                        result if data is None else data, result.experiment)
    result.notes.extend(v.line() for v in verdicts)
    return verdicts


def campaign_verdicts(table: RowTable, metrics: MetricsTable | None = None) -> dict:
    """Verdicts per ``(campaign, family)`` of each campaign in ``table``:
    open-loop rows by the campaign's family (``fig9`` reading its rows of
    ``metrics``), closed-loop rows by the ``workload`` claims."""
    out = {}
    for campaign in table.campaigns():
        sub = table.filter(campaign=campaign)
        for engine, rows in (("open", sub.open_rows()), ("closed", sub.closed_rows())):
            if rows:
                name = family(campaign, engine)
                if name == "fig9":
                    rows = (metrics or MetricsTable()).filter(campaign=campaign)
                out[(campaign, name)] = evaluate(name, rows, campaign)
    return out


_LINE = re.compile(r"(reproduced|not reproduced|inconclusive|untested) \[([^\]]+)\]: ")


def parse(text: str, evidence: str = "") -> Verdict | None:
    """The verdict a :meth:`Verdict.line` note states, else ``None``."""
    match = _LINE.match(text)
    claim = _BY_ID.get(match.group(2)) if match else None
    head = claim and f"{match.group(0)}{claim.statement} ({claim.ref}) — "
    if not head or not text.startswith(head):
        return None
    return Verdict(claim, match.group(1), text[len(head):], evidence)


def summary(verdicts: list[Verdict]) -> list[Verdict]:
    """REPORT.md's rows in :data:`CLAIMS` order: each claim's verdicts
    that tested it, else its first untested one, else one saying no
    input reads it."""
    rows = []
    for claim in CLAIMS:
        mine = [v for v in verdicts if v.claim.id == claim.id]
        rows += ([v for v in mine if v.status != UNTESTED] or mine[:1]
                 or [Verdict(claim, UNTESTED, f"no {claim.reads} input")])
    return rows


def _judge(ok: bool, detail: str = ""):
    return (REPRODUCED if ok else NOT_REPRODUCED), detail


def _some(items, what: str) -> list:
    """``items`` as a list; empty raises ``KeyError(what)``, which
    :meth:`Claim.evaluate` reads as untested."""
    items = list(items)
    if not items:
        raise KeyError(what)
    return items


def _worst(statuses) -> str:
    statuses = set(statuses)
    return next((s for s in (NOT_REPRODUCED, INCONCLUSIVE) if s in statuses), REPRODUCED)


def _bracket(curve: Curve) -> tuple[float, float]:
    """``(lo, hi)``: ``curve`` saturates above ``lo``, at or below ``hi``."""
    sat = saturation_point(curve)
    if sat is None:
        return curve.loads[-1], math.inf
    i = curve.loads.index(sat)
    return (curve.loads[i - 1] if i else 0.0), sat


def _saturation(curve: Curve) -> str:
    lo, hi = _bracket(curve)
    if hi == math.inf:
        return f"{curve.label} not saturated through {lo:g}"
    return f"{curve.label} saturates at {hi:g}" + (f", not at {lo:g}" if lo else "")


def _outlives(a: Curve, b: Curve):
    """Whether ``a`` sustains more load than ``b``."""
    (a_lo, a_hi), (b_lo, b_hi) = _bracket(a), _bracket(b)
    status = REPRODUCED if a_lo >= b_hi else NOT_REPRODUCED if a_hi <= b_lo else INCONCLUSIVE
    return status, f"{_saturation(a)}; {_saturation(b)}"


# -- figure families ---------------------------------------------------------


def _curves(table: RowTable, key) -> dict:
    """Open-loop curves by ``key(curve)``, first per key; ``None`` drops."""
    out: dict = {}
    for c in table.curves():
        if (k := key(c)) is not None:
            out.setdefault(k, c)
    return out


def _pattern(table: RowTable, pattern: str, *labels: str) -> dict:
    """One traffic pattern's curves by label, holding every ``labels``."""
    def key(c):
        t = c.spec.get("traffic")
        return c.label if isinstance(t, dict) and t.get("pattern") == pattern else None

    curves = _curves(table, key)
    if not set(labels) <= curves.keys():
        raise KeyError(f"{pattern}-traffic {' and '.join(labels)} curves")
    return curves


def _lowest_latency(table):
    curves = _pattern(table, "uniform", "SF-MIN")
    first = {k: curves[k].low_load_latency or math.inf
             for k in ("SF-MIN", "DF-UGAL-L", "FT-ANCA") if k in curves}
    if len(first) < 2:
        raise KeyError("uniform-traffic DF-UGAL-L or FT-ANCA curves")
    return _judge(first["SF-MIN"] <= min(first.values()), "lowest-load latency "
                  + ", ".join(f"{k} {v:.2f}" for k, v in first.items()) + " cycles")


def _val_early(table):
    val = _pattern(table, "uniform", "SF-VAL")["SF-VAL"]
    lo, hi = _bracket(val)
    # 0.55: the paper's "below ~50%" with the first checks' tolerance.
    status = REPRODUCED if hi <= 0.55 else NOT_REPRODUCED if lo >= 0.55 else INCONCLUSIVE
    return status, f"{_saturation(val)} (bound 0.55)"


def _pair(pattern: str, a: str, b: str):
    def check(table):
        curves = _pattern(table, pattern, a, b)
        return _outlives(curves[a], curves[b])
    return check


def _ft_highest(table):
    curves = _pattern(table, "worstcase", "FT-ANCA")
    ft = curves.pop("FT-ANCA")
    if not curves:
        raise KeyError("worstcase-traffic rival curves")
    outcome = {k: _outlives(ft, c)[0] for k, c in curves.items()}
    status = _worst(outcome.values())
    if status == REPRODUCED:
        return status, f"{_saturation(ft)}; above all {len(curves)} rivals"
    word = "not above" if status == NOT_REPRODUCED else "undecided against"
    return status, f"{_saturation(ft)}; {word} " + ", ".join(
        _saturation(curves[k]) for k, s in outcome.items() if s == status)


def _buffers(table):
    """The curves at the smallest and largest buffer."""
    curves = _curves(table, lambda c: c.spec["sim"]["buffer_per_port"])
    if len(curves) < 2:
        raise KeyError("curves at two buffer sizes")
    return curves[min(curves)], curves[max(curves)]


def _buffers_latency(table):
    small, large = _buffers(table)
    at_small = dict(zip(small.loads, small.latency))
    common = [(load, at_small[load], lat) for load, lat in zip(large.loads, large.latency)
              if lat is not None and at_small.get(load) is not None]
    if not common:
        return INCONCLUSIVE, "no load with a finite latency at both sizes"
    load, a, b = common[-1]
    return _judge(a <= b, f"{small.label} {a:.2f} vs {large.label} {b:.2f} cycles "
                  f"at load {load:g}")


def _oversub(table):
    curves = _curves(table, lambda c: c.spec["topology"]["params"]["concentration"])
    peaks = {p: curves[p].peak_accepted or 0.0 for p in sorted(curves)}
    if len(peaks) < 2:
        raise KeyError("curves at two concentrations")
    vals = list(peaks.values())
    # A rise of up to 0.05 between concentrations is measurement noise.
    return _judge(all(b <= a + 0.05 for a, b in zip(vals, vals[1:])),
                  " -> ".join(f"{v:.3f} (p={p})" for p, v in peaks.items()))


def _flattens(metrics: MetricsTable):
    loads = metrics.channel_loads()
    if not (loads.get("SF-MIN") and loads.get("SF-UGAL-L")):
        raise KeyError("SF-MIN and SF-UGAL-L channel loads")
    hot_min, hot_ugal = max(loads["SF-MIN"]), max(loads["SF-UGAL-L"])
    return _judge(hot_ugal < hot_min, f"hottest channel SF-UGAL-L {hot_ugal:.3f} "
                  f"vs SF-MIN {hot_min:.3f} flits/cycle")


def _makespans(table: RowTable, kind: str) -> dict:
    """Mean finished completion per protocol of ``PROTOCOL/kind`` rows."""
    done: dict = {}
    for r in table.closed_rows():
        protocol, _, label_kind = r["label"].partition("/")
        if label_kind == kind:
            done.setdefault(protocol, []).extend([r["makespan"]] if r["finished"] else [])
    return {p: sum(v) / len(v) if v else None for p, v in done.items()}


def _fastest(winner: str, rivals=None, kinds=None):
    """``winner`` completes no later than each present rival (default:
    every other protocol), per workload kind (default: every kind)."""
    def check(table):
        statuses, parts = [], []
        labels = table.closed_rows().labels()
        for kind in kinds or dict.fromkeys(k for x in labels if (k := x.partition("/")[2])):
            times = _makespans(table, kind)
            others = {p: t for p, t in times.items()
                      if p != winner and (rivals is None or p in rivals)}
            if winner not in times or not others:
                continue
            shown = {winner: times[winner], **others}
            late = [p for p, t in shown.items() if t is None]
            statuses.append(INCONCLUSIVE if late else
                            _judge(shown[winner] <= min(others.values()))[0])
            parts.append(f"{kind}: " + (f"{', '.join(late)} hit the cycle cap" if late else
                         ", ".join(f"{p} {t:g}" for p, t in shown.items()) + " cycles"))
        if not statuses:
            kind = " or ".join(kinds or ["closed-loop"])
            raise KeyError(f"{kind} rows of {winner} and a rival")
        return _worst(statuses), "; ".join(parts)
    return check


def _fault(table):
    statuses, parts = [], []
    for protocol, sweeps in fault_sweeps(table).items():
        by_frac = {frac: c.peak_accepted for frac, c in sweeps}
        healthy = by_frac.pop(0.0, None)
        if healthy and by_frac:
            # A sample that fragmented the network carries no load.
            frac, worst = min(by_frac.items(), key=lambda kv: kv[1] or -1.0)
            statuses.append(_judge(worst is not None and 2 * worst > healthy)[0])
            parts.append(f"{protocol} disconnected at {frac:g}" if worst is None
                         else f"{protocol} {healthy:.3f} -> {worst:.3f} at {frac:g}")
    if not statuses:
        raise KeyError("a healthy and a faulted curve per protocol")
    return _worst(statuses), "peak accepted " + "; ".join(parts) + " dead links"


# -- analytic experiments ------------------------------------------------------


def _rows(result) -> list[dict]:
    """The experiment's first table as dicts keyed by header."""
    headers, rows = result.tables[0]
    return [dict(zip(headers, row)) for row in rows]


def _column(result, key: str, value: str) -> dict:
    """``value`` per ``key``, the largest where a key repeats; ``"40%"``
    reads as 40."""
    out: dict = {}
    for r in _rows(result):
        v = int(r[value].rstrip("%")) if isinstance(r[value], str) else r[value]
        out[r[key]] = max(out.get(r[key], v), v)
    return out


def _order(values: dict, *groups, unit: str = "%"):
    """Each group (a name or tuple of names) at least the next one."""
    groups = [(g,) if isinstance(g, str) else g for g in groups]
    ok = all(min(values[n] for n in a) >= max(values[n] for n in b)
             for a, b in zip(groups, groups[1:]))
    return _judge(ok, ", ".join(f"{n} {values[n]:g}{unit}" for g in groups for n in g))


def _moore3(result):
    top: dict = {}
    for r in _rows(result):  # each family's share at its largest radix
        top[r["construction"]] = max(top.get(r["construction"], (0, 0)),
                                     (r["k'"], r["% of Moore bound"]))
    return {name: share for name, (_, share) in top.items()}


def _fewest_hops(result):
    series = {s.name: s for s in result.bundles[0].series if s.y}
    sf = series.pop("SF")
    rival = min(_some(series.values(), "a rival series"), key=lambda s: s.y[-1])
    lowest = all(a <= b for s in series.values() for a, b in zip(sf.y, s.y))
    return _judge(lowest and max(sf.y) < 2.0, f"SF {sf.y[-1]:.3f} hops at N={sf.x[-1]} "
                  f"vs next lowest {rival.name} {rival.y[-1]:.3f}")


def _near_moore(result):
    shares = {r["k'"]: r["% of Moore bound"] for r in _some(
        (r for r in _rows(result) if r["construction"] == "SF MMS"), "SF MMS rows")}
    top, low, high = shares[max(shares)], min(shares.values()), max(shares.values())
    return _judge(top >= 80.0 and 66.0 <= low and high <= 100.0,
                  f"{top}% at k'={max(shares)}; {low}-{high}% over {len(shares)} radixes")


def _bisection(result):
    sf, df = (_some(result.bundles[0].get(n).y, f"{n} points") for n in ("SF", "DF"))
    return _judge(all(a >= 0.8 * b for a, b in zip(sf, df)),
                  ", ".join(f"SF {a:g} vs DF {b:g} Gb/s" for a, b in zip(sf, df)))


def _diameters(result):
    measured = _column(result, "topology", "measured diameter")
    off = []
    for r in _rows(result):  # expected: "2" or a range like "3-10"
        lo, _, hi = str(r["expected"]).partition("-")
        if not int(lo) <= r["measured diameter"] <= int(hi or lo):
            off.append(f"{r['topology']} {r['measured diameter']} "
                       f"(expected {r['expected']})")
    return _judge(not off and measured["SF"] == 2 == min(measured.values()),
                  f"mismatch: {', '.join(off)}" if off
                  else f"all {len(measured)} match; SF lowest at {measured['SF']}")


def _sf_vs_df(result):
    rows = _rows(result)
    sf = _some((r for r in rows if r["topology"] == "SF"), "an SF row")[0]
    # The comparable Dragonfly: same router radix, closest size.
    df = min(_some((r for r in rows if r["topology"] == "DF" and r["group"] == sf["group"]),
                   "a DF row of SF's radix"), key=lambda r: abs(r["N"] - sf["N"]))
    save, psave = (1 - sf[k] / df[k] for k in ("$/node", "W/node"))
    return _judge(min(save, psave) >= 0.15, f"{100 * save:.0f}% cheaper, "
                  f"{100 * psave:.0f}% less power than DF N={df['N']}")


def _ft_dearest(result):
    high = [r for r in _rows(result) if r["group"].startswith("high-radix")]
    ft = max(_some((r["$/node"] for r in high if r["topology"] == "FT-3"),
                   "a high-radix FT-3 row"))
    rival = max(_some((r for r in high if r["topology"] != "FT-3"), "a high-radix rival"),
                key=lambda r: r["$/node"])
    return _judge(ft >= rival["$/node"], f"FT-3 {ft} $ per node vs next dearest "
                  f"{rival['topology']} {rival['$/node']} $")


def _least(column: str, unit: str):
    def check(result):
        per = _column(result, "topology", column)
        sf = per.pop("SF")
        rival = min(_some(per, "a rival row"), key=per.get)
        return _judge(sf <= per[rival], f"SF {sf:g} {unit} vs next lowest {rival} "
                      f"{per[rival]:g} {unit} ({100 * (1 - sf / per[rival]):.0f}% below)")
    return check


def _vcs(result):
    rows = _rows(result)
    sf = _some((r for r in rows if r["network"].startswith("SF")), "SF rows")
    dln = _some((r["DFSSSP-style VC layers"] for r in rows if r["network"].startswith("DLN")),
                "a DLN row")[0]
    layers = max(r["DFSSSP-style VC layers"] for r in sf)
    gopal = sum(r["Gopal 2-VC MIN acyclic"] is True
                and r["Gopal 4-VC adaptive acyclic"] is True for r in sf)
    return _judge(gopal == len(sf) and layers <= 3 and layers < dln, f"hop-indexed "
                  f"VCs acyclic on {gopal} of {len(sf)}; SF {layers} vs DLN {dln} layers")


def _candidates(result):
    latency = _column(result, "candidates", "latency @ 0.5 load")
    four, best = latency[4], min(latency.values())
    # Within 5% of the best count is noise.
    status = (REPRODUCED if four == best else INCONCLUSIVE if four <= 1.05 * best
              else NOT_REPRODUCED)
    return status, ", ".join(f"{c}: {v:g}" for c, v in latency.items()) + " cycles"


def _val_cap(result):
    lat = _column(result, "variant", "latency @ 0.35 load")
    free, capped = lat["unconstrained (2-4 hops)"], lat["capped at 3 hops"]
    return _judge(capped >= 0.98 * free, f"capped {capped:g} vs unconstrained {free:g} cycles")


def _xi(result):
    rows = _some(_rows(result), "primitive-element rows")
    sigs = {(r["diameter"], r["avg distance"], str(r["degrees"])) for r in rows}
    return _judge(len(sigs) == 1, f"{len(sigs)} signature(s) over {len(rows)} elements")


_DEPLOY = "arXiv:2310.03742"
_TOLERATED = "tolerated failures"

#: Every claim of the reproduction, in REPORT.md order.
CLAIMS = (
    Claim("fig6.sf-lowest-latency", "Fig 6a, §V", "fig6",
          "Slim Fly has the lowest low-load latency (diameter 2)", _lowest_latency),
    Claim("fig6.val-saturates-early", "Fig 6a, §V", "fig6",
          "SF-VAL saturates below ~50% of uniform injection", _val_early),
    Claim("fig6.min-outlives-val", "Fig 6a, §V", "fig6",
          "SF-MIN sustains more uniform load than SF-VAL",
          _pair("uniform", "SF-MIN", "SF-VAL")),
    Claim("fig6.min-below-ugal", "Fig 6d, §V", "fig6",
          "Worst-case traffic saturates SF-MIN below SF-UGAL-L "
          "(paper: ~1/(p+1) vs ~40-45%)", _pair("worstcase", "SF-UGAL-L", "SF-MIN")),
    Claim("fig6.ft-highest", "Fig 6d, §V", "fig6",
          "The full-bandwidth fat tree sustains the highest worst-case load", _ft_highest),
    Claim("buffers.small-lower-latency", "Fig 8a, §V-D", "buffers",
          "Smaller input buffers give lower latency near saturation", _buffers_latency),
    Claim("buffers.large-more-load", "Fig 8a, §V-D", "buffers",
          "Larger input buffers sustain more load",
          lambda t: _outlives(*reversed(_buffers(t)))),
    Claim("oversub.graceful", "Figs 8b-e, §V-E", "oversub",
          "Max accepted uniform load falls gracefully as concentration grows "
          "(paper q=19: ~87.5%, ~80%, ~75%)", _oversub),
    Claim("fig9.ugal-flattens", "Fig 9, §V", "fig9",
          "Under worst-case traffic SF-UGAL-L's hottest channel carries less "
          "than SF-MIN's", _flattens),
    Claim("workload.sf-min-trees", _DEPLOY, "workload",
          "Diameter-2 SF-MIN completes latency-bound broadcast and gather trees "
          "fastest", _fastest("SF-MIN", ("DF-UGAL-L", "FT-ANCA"), ("broadcast", "gather"))),
    Claim("workload.ugal-beats-val", _DEPLOY, "workload",
          "Adaptive SF-UGAL-L never completes later than oblivious SF-VAL",
          _fastest("SF-UGAL-L", ("SF-VAL",))),
    Claim("workload.ft-alltoall", _DEPLOY, "workload",
          "The full-bisection fat tree completes bandwidth-bound all-to-all fastest",
          _fastest("FT-ANCA", kinds=("alltoall",))),
    Claim("fault.graceful", f"§III-D, {_DEPLOY}", "fault",
          "Under random link loss Slim Fly stays connected and keeps more than "
          "half its healthy peak throughput", _fault),
    Claim("fig1.sf-fewest-hops", "Fig 1, §III-B", "fig1",
          "Slim Fly has the lowest average hop count at every size, below 2",
          _fewest_hops),
    Claim("fig5a.mms-near-moore", "Fig 5a, §III-A", "fig5a",
          "MMS Slim Flies reach ~88% of the diameter-2 Moore bound (at least 80% "
          "at the top radix, 66-100% at every radix)", _near_moore),
    Claim("fig5b.moore3-order", "Fig 5b, §III-A", "fig5b",
          "Diameter-3 Moore-bound shares order DEL > BDF > DF > FBF-3 "
          "(paper: 68/30/14/4.9%)", lambda r: _order(_moore3(r), "DEL", "BDF", "DF", "FBF-3")),
    Claim("fig5c.sf-bisection", "Fig 5c, §III-C", "fig5c",
          "Slim Fly's bisection bandwidth is at least ~Dragonfly's (within 20% "
          "at each size class)", _bisection),
    Claim("table2.diameters", "Table II, §III-B", "table2",
          "Every measured diameter matches Table II, Slim Fly lowest at 2", _diameters),
    Claim("table3.sf-resilient", "Table III, §III-D1", "table3",
          "SF, DLN and FBF-3 survive at least as much random link loss as the 3D "
          "torus before disconnecting", lambda r: _order(
              _column(r, "topology", "max removable links"), ("SF", "DLN", "FBF-3"), "T3D")),
    Claim("res-diameter.order", "§III-D2", "res-diameter",
          "DLN tolerates the most link failures before the diameter grows by 2 and "
          "DF the fewest (paper: DLN 60%, SF 40%, DF 25%)",
          lambda r: _order(_column(r, "topology", _TOLERATED), "DLN", "SF", "DF")),
    Claim("res-pathlen.sf-over-df", "§III-D3", "res-pathlen",
          "SF tolerates at least as many link failures as DF before the average "
          "path grows by one hop (paper: 55% vs 45%)",
          lambda r: _order(_column(r, "topology", _TOLERATED), "SF", "DF")),
    Claim("table4.sf-vs-df", "Table IV, §VI", "table4",
          "Slim Fly is ~25% cheaper and draws ~25% less power per endpoint than a "
          "comparable Dragonfly (at least 15% each)", _sf_vs_df),
    Claim("table4.ft-dearest", "Table IV, §VI", "table4",
          "FT-3 is the most expensive high-radix design per endpoint", _ft_dearest),
    Claim("fig11-cost.sf-cheapest", "Figs 11c/12c/13c, §VI", "fig11-cost",
          "Slim Fly is the cheapest network per endpoint at the largest size",
          _least("$ / endpoint at largest N", "$")),
    Claim("fig11-power.sf-least-power", "Figs 11d/12d/13d, §VI", "fig11-power",
          "Slim Fly draws the least power per endpoint (paper: >25% below DF, "
          "FBF-3 and DLN at ~10K endpoints)", _least("W / endpoint at largest N", "W")),
    Claim("vc-counts.sf-few-vcs", "§IV-D, Fig 7", "vc-counts",
          "Slim Fly is deadlock-free with 2 hop-indexed VCs for minimal and 4 for "
          "adaptive routing, and needs at most 3 DFSSSP VC layers, fewer than DLN "
          "(paper: 3 vs 8-15)", _vcs),
    Claim("ablate-ugal.four-candidates", "§IV-C", "ablate-ugal",
          "Four random UGAL candidates give the lowest latency of the counts tried "
          "(within 5% reads inconclusive)", _candidates),
    Claim("ablate-val.cap-no-gain", "§IV-B", "ablate-val",
          "Capping Valiant paths at 3 hops does not lower latency (paper: it "
          "raises it)", _val_cap),
    Claim("ablate-xi.invariant", "§II-B1", "ablate-xi",
          "Every primitive element gives the same degree, diameter and average "
          "distance", _xi),
)

_BY_ID = {c.id: c for c in CLAIMS}
