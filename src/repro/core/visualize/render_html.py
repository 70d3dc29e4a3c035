"""Standalone HTML performance reports with interactive drill-down.

Bundles the Figure 5/6-7/8 SVGs and summary tables for one or more
archives into a single self-contained HTML file — the shareable visual
artifact of an evaluation iteration.  On top of the static SVGs the
report embeds the archive data as JSON plus inline JavaScript for
fine-grained exploration (the GiViP-style profiler view):

- an **operation hierarchy** with expand/collapse, per-operation
  duration and provenance (``inferred`` spans are visually flagged);
- a **per-worker activity** strip: one lane per actor, operation spans
  positioned on the job's time axis;
- a **CPU series** per node from the archive's environment samples.

When ``live_url`` is given (a job currently running under
``granula run --live-port``), the page subscribes to the job's SSE
snapshot stream and re-renders each section as snapshots arrive,
closing the subscription on the terminal ``complete`` event.  Without
it the same markup degrades to a purely static report — the JS renders
once from the embedded JSON and never opens a connection.

Security note: every dynamic string (platform, job id, metadata,
title) is routed through :func:`html.escape` before interpolation, and
the embedded JSON is ``</``-escaped so archive content can never close
the script tag.  The client-side renderer only assigns
``textContent``, never ``innerHTML``, for archive-derived strings.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, Iterable, List, Optional

from repro.core.archive.archive import PerformanceArchive
from repro.core.visualize.breakdown import compute_breakdown
from repro.core.visualize.gantt import compute_gantt
from repro.core.visualize.utilization import compute_utilization
from repro.errors import VisualizationError

_STYLE = """
body { font-family: sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
h3 { font-size: 13px; margin: 18px 0 6px; color: #444; }
section { margin-bottom: 36px; }
pre { background: #f6f6f6; padding: 8px; overflow-x: auto; font-size: 12px; }
.meta { color: #666; font-size: 12px; }
.live-status { font-size: 12px; color: #0a7d38; }
.live-status.done { color: #666; }
.drill ul { list-style: none; margin: 0; padding-left: 18px; }
.drill li { font-size: 12px; line-height: 1.7; }
.drill .toggle { cursor: pointer; display: inline-block; width: 14px;
  color: #888; user-select: none; }
.drill .dur { color: #666; }
.drill .prov-inferred { color: #b36b00; font-style: italic; }
.drill .collapsed > ul { display: none; }
.lanes { font-size: 11px; }
.lane { display: flex; align-items: center; margin: 2px 0; }
.lane .label { width: 130px; color: #555; overflow: hidden;
  text-overflow: ellipsis; white-space: nowrap; flex: none; }
.lane .track { position: relative; height: 14px; flex: 1;
  background: #f2f2f2; }
.lane .track span { position: absolute; top: 1px; height: 12px;
  background: #4a7db5; opacity: .85; min-width: 1px; }
.lane .track span.inferred { background: #d69a3a; }
.cpuwrap svg { background: #fcfcfc; border: 1px solid #eee; }
"""

#: The inline renderer.  Plain JS (no dependencies) so the report stays
#: a single self-contained file; archive strings only ever flow into
#: ``textContent``.
_SCRIPT = """
(function () {
  'use strict';
  var DATA = window.GRANULA_DATA;
  if (!DATA) { return; }
  var expanded = {};  // uid -> bool, survives live re-renders

  function decodeDoc(doc) {
    var ops = doc.operations, recs = [];
    if (ops && ops.uid) {
      for (var i = 0; i < ops.count; i++) {
        recs.push({uid: ops.uid[i], mission: ops.mission[i],
                   actor: ops.actor[i], parent: ops.parent[i],
                   start: ops.start[i], end: ops.end[i],
                   prov: 'measured'});
      }
      for (var j = 0; j < (ops.info_op || []).length; j++) {
        if (ops.info_key[j] === 'Provenance') {
          recs[ops.info_op[j]].prov = ops.info_value[j];
        }
      }
    } else if (ops) {
      (function walk(o, p) {
        var idx = recs.length;
        recs.push({uid: o.uid, mission: o.mission, actor: o.actor,
                   parent: p, start: o.start, end: o.end,
                   prov: (o.infos && o.infos.Provenance) || 'measured'});
        (o.children || []).forEach(function (c) { walk(c, idx); });
      })(ops, -1);
    }
    var env = (doc.environment || []).map(function (s) {
      return [s.ts, s.node, s.cpu];
    });
    return {job_id: doc.job_id, platform: doc.platform,
            metadata: doc.metadata || {}, ops: recs, env: env};
  }

  function span(recs) {
    var lo = Infinity, hi = -Infinity;
    recs.forEach(function (r) {
      if (r.start !== null && r.start < lo) { lo = r.start; }
      if (r.end !== null && r.end > hi) { hi = r.end; }
    });
    if (!isFinite(lo) || !isFinite(hi) || hi <= lo) {
      return [0, 1];
    }
    return [lo, hi];
  }

  function renderTree(el, recs) {
    el.textContent = '';
    var kids = recs.map(function () { return []; });
    recs.forEach(function (r, i) {
      if (r.parent >= 0) { kids[r.parent].push(i); }
    });
    function build(i, depth) {
      var r = recs[i], li = document.createElement('li');
      var caret = document.createElement('span');
      caret.className = 'toggle';
      var label = document.createElement('span');
      label.textContent = r.mission + ' @ ' + r.actor + ' ';
      var dur = document.createElement('span');
      dur.className = 'dur';
      if (r.start !== null && r.end !== null) {
        dur.textContent = '[' + (r.end - r.start).toFixed(2) + 's]';
      } else {
        dur.textContent = '[open]';
      }
      li.appendChild(caret);
      li.appendChild(label);
      li.appendChild(dur);
      if (r.prov === 'inferred') {
        var p = document.createElement('span');
        p.className = 'prov-inferred';
        p.textContent = ' inferred';
        li.appendChild(p);
      }
      if (kids[i].length) {
        var open = expanded[r.uid] !== undefined
          ? expanded[r.uid] : depth < 2;
        caret.textContent = open ? '\\u25be' : '\\u25b8';
        if (!open) { li.className = 'collapsed'; }
        caret.onclick = function () {
          var now = li.className === 'collapsed';
          expanded[r.uid] = now;
          li.className = now ? '' : 'collapsed';
          caret.textContent = now ? '\\u25be' : '\\u25b8';
        };
        var ul = document.createElement('ul');
        kids[i].forEach(function (k) { ul.appendChild(build(k, depth + 1)); });
        li.appendChild(ul);
      } else {
        caret.textContent = '\\u00b7';
      }
      return li;
    }
    if (recs.length) {
      var root = document.createElement('ul');
      root.appendChild(build(0, 0));
      el.appendChild(root);
    }
  }

  function renderLanes(el, recs) {
    el.textContent = '';
    var bounds = span(recs), lo = bounds[0], width = bounds[1] - bounds[0];
    var byActor = {}, order = [];
    recs.forEach(function (r, i) {
      if (i === 0) { return; }  // The job root spans everything.
      if (!byActor[r.actor]) { byActor[r.actor] = []; order.push(r.actor); }
      byActor[r.actor].push(r);
    });
    order.sort();
    order.forEach(function (actor) {
      var lane = document.createElement('div');
      lane.className = 'lane';
      var label = document.createElement('div');
      label.className = 'label';
      label.textContent = actor;
      var track = document.createElement('div');
      track.className = 'track';
      byActor[actor].forEach(function (r) {
        if (r.start === null || r.end === null) { return; }
        var bar = document.createElement('span');
        if (r.prov === 'inferred') { bar.className = 'inferred'; }
        bar.style.left = (100 * (r.start - lo) / width) + '%';
        bar.style.width =
          Math.max(0.2, 100 * (r.end - r.start) / width) + '%';
        bar.title = r.mission + ': ' + (r.end - r.start).toFixed(2) + 's';
        track.appendChild(bar);
      });
      lane.appendChild(label);
      lane.appendChild(track);
      el.appendChild(lane);
    });
  }

  function renderCpu(el, env) {
    el.textContent = '';
    if (!env.length) {
      var note = document.createElement('p');
      note.className = 'meta';
      note.textContent = 'no environment samples yet';
      el.appendChild(note);
      return;
    }
    var W = 640, H = 120, PAD = 4;
    var lo = Infinity, hi = -Infinity, peak = 0;
    var byNode = {}, nodes = [];
    env.forEach(function (s) {
      if (s[0] < lo) { lo = s[0]; }
      if (s[0] > hi) { hi = s[0]; }
      if (s[2] > peak) { peak = s[2]; }
      if (!byNode[s[1]]) { byNode[s[1]] = []; nodes.push(s[1]); }
      byNode[s[1]].push(s);
    });
    nodes.sort();
    var width = (hi > lo) ? hi - lo : 1;
    peak = peak || 1;
    var NS = 'http://www.w3.org/2000/svg';
    var svg = document.createElementNS(NS, 'svg');
    svg.setAttribute('width', W);
    svg.setAttribute('height', H);
    nodes.forEach(function (node, n) {
      var pts = byNode[node].map(function (s) {
        var x = PAD + (W - 2 * PAD) * (s[0] - lo) / width;
        var y = H - PAD - (H - 2 * PAD) * (s[2] / peak);
        return x.toFixed(1) + ',' + y.toFixed(1);
      }).join(' ');
      var line = document.createElementNS(NS, 'polyline');
      line.setAttribute('points', pts);
      line.setAttribute('fill', 'none');
      line.setAttribute('stroke',
        'hsl(' + (210 + 47 * n) % 360 + ',60%,45%)');
      line.setAttribute('stroke-width', '1.2');
      var title = document.createElementNS(NS, 'title');
      title.textContent = node;
      line.appendChild(title);
      svg.appendChild(line);
    });
    el.appendChild(svg);
  }

  function renderAll(index, payload) {
    var drill = document.getElementById('drill-' + index);
    var lanes = document.getElementById('lanes-' + index);
    var cpu = document.getElementById('cpu-' + index);
    if (drill) { renderTree(drill, payload.ops); }
    if (lanes) { renderLanes(lanes, payload.ops); }
    if (cpu) { renderCpu(cpu, payload.env); }
  }

  DATA.archives.forEach(function (payload, index) {
    renderAll(index, payload);
  });

  if (DATA.live && window.EventSource) {
    var status = document.getElementById('live-status-0');
    var source = new EventSource(DATA.live);
    source.addEventListener('snapshot', function (e) {
      var payload = decodeDoc(JSON.parse(e.data));
      renderAll(0, payload);
      if (status) {
        var inferred = payload.ops.filter(function (r) {
          return r.prov === 'inferred';
        }).length;
        status.textContent = 'live \\u00b7 snapshot ' + e.lastEventId +
          ' \\u00b7 ' + payload.ops.length + ' operations (' +
          inferred + ' still open)';
      }
    });
    source.addEventListener('complete', function () {
      source.close();
      if (status) {
        status.textContent = 'job complete \\u2014 final archive shown';
        status.className = 'live-status done';
      }
    });
  }
})();
"""


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


def _archive_payload(archive: PerformanceArchive) -> Dict[str, Any]:
    """The archive as the flat-record JSON the inline JS renders."""
    records: List[Dict[str, Any]] = []

    def walk(op, parent: int) -> None:
        index = len(records)
        records.append({
            "uid": op.uid,
            "mission": op.mission,
            "actor": op.actor,
            "parent": parent,
            "start": op.start_time,
            "end": op.end_time,
            "prov": op.provenance,
        })
        for child in op.children:
            walk(child, index)

    walk(archive.root, -1)
    return {
        "job_id": archive.job_id,
        "platform": archive.platform,
        "metadata": archive.metadata,
        "ops": records,
        "env": [list(sample) for sample in archive.env_samples],
    }


def render_report_html(
    archives: Iterable[PerformanceArchive],
    title: str = "Granula performance report",
    include_gantt: bool = True,
    live_url: Optional[str] = None,
) -> str:
    """One self-contained HTML report covering the given archives.

    With ``live_url`` the first archive's sections subscribe to that
    SSE endpoint and re-render per snapshot; otherwise the report is
    fully static (same markup, no connection).
    """
    archives = list(archives)
    sections: List[str] = []
    payloads: List[Dict[str, Any]] = []
    for index, archive in enumerate(archives):
        payloads.append(_archive_payload(archive))
        parts: List[str] = [
            f"<h2>{_esc(archive.platform)} — {_esc(archive.job_id)}</h2>"
        ]
        meta = archive.metadata
        breakdown = compute_breakdown(archive)
        parts.append(
            f"<p class='meta'>algorithm={_esc(meta.get('algorithm', '?'))} "
            f"dataset={_esc(meta.get('dataset', '?'))} "
            f"makespan={breakdown.total:.2f}s "
            f"operations={archive.size()}</p>"
        )
        if live_url is not None and index == 0:
            parts.append(
                f"<p class='live-status' id='live-status-{index}'>"
                f"connecting to live stream…</p>"
            )
        parts.append(breakdown.render_svg())
        try:
            utilization = compute_utilization(archive)
            parts.append(utilization.render_svg())
        except VisualizationError:
            parts.append("<p class='meta'>no environment samples</p>")
        if include_gantt:
            try:
                gantt = compute_gantt(archive)
                parts.append(gantt.render_svg())
            except VisualizationError:
                pass  # Not every model reaches the implementation level.
        parts.append("<h3>operation drill-down</h3>")
        parts.append(f"<div class='drill' id='drill-{index}'></div>")
        parts.append("<h3>per-worker activity</h3>")
        parts.append(f"<div class='lanes' id='lanes-{index}'></div>")
        parts.append("<h3>cpu series</h3>")
        parts.append(f"<div class='cpuwrap' id='cpu-{index}'></div>")
        sections.append("<section>" + "\n".join(parts) + "</section>")
    body = "\n".join(sections)
    # "<" must never appear inside the script tag (no "</script>"
    # breakout, no markup from archive strings); < is
    # JSON-transparent, so the decoded data is unchanged.
    data = json.dumps(
        {"live": live_url, "archives": payloads}
    ).replace("<", "\\u003c")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'/>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{_esc(title)}</h1>\n{body}\n"
        f"<script>window.GRANULA_DATA = {data};</script>"
        f"<script>{_SCRIPT}</script>"
        "</body></html>"
    )
