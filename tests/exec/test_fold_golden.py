"""Golden outputs of the campaign read path on the FakeClock fixture.

``repro alerts`` (JSON and the ``alerts.jsonl`` it writes), ``repro
monitor`` and the server's campaign, job and alert endpoints are
compared byte for byte with captures committed under ``golden/``.  The
captures were taken before the event-stream readers were merged into
one fold, so any drift in what the fold derives shows up as a diff.
"""

import json
import threading
import urllib.request
from pathlib import Path
from unittest import mock

from repro.core.timing import FakeClock
from repro.telemetry.serve import ObservabilityServer

from ..test_cli import run_cli
from .test_monitor import _run_campaign

GOLDEN = Path(__file__).parent / "golden"

# Reading instant for the monitor and the server: six seconds after the
# fixture's last event, so heartbeat ages are nonzero but not stalled.
NOW_S = 1030.0


def golden_outputs(root: Path) -> dict[str, bytes]:
    """Run the fixture campaign under ``root`` and capture every output."""
    campaign_dir = root / "golden"
    _run_campaign(campaign_dir, FakeClock(start=1000.0))
    out: dict[str, bytes] = {}

    code, text = run_cli("alerts", str(campaign_dir), "--json")
    assert code == 0
    out["alerts.json"] = text.encode("utf-8")
    out["alerts.jsonl"] = (campaign_dir / "alerts.jsonl").read_bytes()

    with mock.patch("time.time", return_value=NOW_S):
        code, text = run_cli("monitor", str(campaign_dir))
    assert code == 0
    out["monitor.txt"] = text.encode("utf-8")

    server = ObservabilityServer(campaign_dir, port=0, clock=lambda: NOW_S,
                                 min_refresh_s=0.0, write_alerts=False).bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        for name, path in (("api_campaigns.json", "/api/campaigns"),
                           ("api_jobs.json", "/api/campaigns/golden/jobs"),
                           ("api_alerts.json", "/api/alerts")):
            with urllib.request.urlopen(server.url + path,
                                        timeout=10.0) as resp:
                out[name] = resp.read()
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        server.close()
    return out


def _edit_json(path: Path, **updates) -> None:
    doc = json.loads(path.read_text())
    doc.update(updates)
    path.write_text(json.dumps(doc))


def live_golden_outputs(root: Path) -> dict[str, bytes]:
    """Alerts a server raises on a campaign caught mid-run.

    Two of four cells are still in flight: seed 2 has a running
    heartbeat and a stream cut after four epochs, seed 3 a running
    heartbeat and no stream yet.  The server is read at instants that
    walk both through quality-regression, stall and heartbeat-loss.
    """
    campaign_dir = root / "live"
    _run_campaign(campaign_dir, FakeClock(start=1000.0), seeds=4)
    journal = campaign_dir / "campaign_journal.json"
    jobs = json.loads(journal.read_text())["jobs"]
    _edit_json(journal, jobs={k: v for k, v in jobs.items()
                              if k in ("fake_benchmark/0", "fake_benchmark/1")})
    beats, events = campaign_dir / "heartbeats", campaign_dir / "events"
    _edit_json(beats / "fake_benchmark_seed2.json", status="running",
               time_s=1020.0, quality=0.5)
    _edit_json(beats / "fake_benchmark_seed3.json", status="running",
               time_s=1030.0, quality=None)
    seed2 = events / "fake_benchmark_seed2.jsonl"
    seed2.write_text("".join(seed2.read_text().splitlines(True)[:8]))
    (events / "fake_benchmark_seed3.jsonl").unlink()
    campaign = events / "campaign.jsonl"
    campaign.write_text("".join(
        line for line in campaign.read_text().splitlines(True)
        if '"seed": 2' not in line and '"seed": 3' not in line
        and "campaign_stop" not in line))

    now = [0.0]
    server = ObservabilityServer(campaign_dir, clock=lambda: now[0],
                                 min_refresh_s=0.0)
    snapshots = []
    try:
        for now_s in (1025.0, 1045.0, 1070.0, 1200.0):
            now[0] = now_s
            snapshots.append({"now_s": now_s,
                              "alerts": server.alerts_payload(),
                              "jobs": server.jobs_payload("live")})
    finally:
        server.close()
    server_json = json.dumps(snapshots, indent=1, sort_keys=True) + "\n"
    return {"live_server.json": server_json.encode("utf-8"),
            "live_alerts.jsonl": (campaign_dir / "alerts.jsonl").read_bytes()}


def test_outputs_match_golden_captures(tmp_path):
    outputs = golden_outputs(tmp_path)
    outputs.update(live_golden_outputs(tmp_path))
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name
