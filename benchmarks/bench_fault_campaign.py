"""Fault-campaign smoke benchmark: 50 seeded plans x 4 applications.

The same sweep is runnable standalone as
``python -m repro.faults.campaign --smoke``; here the unified runner
tracks how long the simulator takes to grind through the adversarial
runs, and the paper-level invariant (zero ``secret-leaked`` outcomes) is
checked at the end of every run.
"""

from repro.bench import register
from repro.crypto.sha1 import sha1
from repro.faults import FaultCampaign
from repro.faults.campaign import APPS, report_json


def run_bench(seeds=50, workers=1):
    """Registered entry point: outcome distribution plus a digest of the
    full canonical report — one drifted byte anywhere in the campaign
    flips ``report_sha1``, making this a whole-subsystem regression gate."""
    report = FaultCampaign(seeds=range(seeds), apps=APPS,
                           workers=workers).run()
    summary = report["summary"]

    assert summary["runs"] == seeds * len(APPS)
    assert summary["secret_leaked"] == 0

    return {
        "virtual": {
            "runs": summary["runs"],
            "outcomes": summary["outcomes"],
            "secret_leaked": summary["secret_leaked"],
            "report_sha1": sha1(report_json(report).encode("ascii")).hex(),
        },
    }


register(
    "fault_campaign", run_bench,
    params={"seeds": 50, "workers": 1},
    quick_params={"seeds": 12, "workers": 1},
    description="Fault campaign: outcome distribution + canonical-report "
                "digest over seeded adversarial sweeps",
)
