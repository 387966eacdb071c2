"""Golden digests: the sim's reports are a pure function of (config, seed).

Every report CSV of the four canned scenarios (streams cut to 1 s; the probe
runs as it is) and of five ``paper-default`` variants is pinned by its
sha256. The variants cover what the canned scenarios leave out: 1% loss on
both hops; four receivers with 256 B packets (four hop-2 links, senders and
receivers, and many small runs); and store-and-forward with relay stalls,
two receivers and offset, drifting sender and relay clocks; and negative
drift with opposite offsets and hop-2 loss, under which a node's local
reading is not strictly increasing in true time; and 3 s with a resync
every 0.5 s, two receivers and offset, drifting sender and relay clocks, the
only pin whose run syncs again after t = 0. Correcting each delay with the
estimate in force at its instant (ROADMAP item 2) will change that pin's
reports, and re-pin it on purpose. The first five
pins were computed before bursts were carried as delivered runs, on the
per-packet link code, and the two multi-receiver pins before the two hops
shared one set of handlers, so a change to how the sim computes arrivals or
routes a hop must reproduce the old reports byte for byte.

To re-pin after a deliberate change of the reports, print
``_csv_digests(...)`` for each case and paste the result.
"""

import hashlib
from pathlib import Path

import pytest

from volstream.config import apply_overrides, validate
from volstream.runner import run_experiment
from volstream.scenarios import scenario_config

ONE_SECOND = {"duration_s": "1"}

CASES = {
    "paper-default": ("paper-default", ONE_SECOND),
    "paper-protocol": ("paper-protocol", ONE_SECOND),
    "paper-probe": ("paper-probe", {}),
    "bandwidth-sweep": ("bandwidth-sweep", {}),
    "paper-default-lossy1pct": ("paper-default", {**ONE_SECOND, "hop1.loss_rate": "0.01",
                                                  "hop2.loss_rate": "0.01"}),
    "paper-default-4rx-pps256": ("paper-default", {**ONE_SECOND, "receivers": "4",
                                                   "transport.packet_payload_size": "256"}),
    "paper-default-storefwd-stall-2rx-skew": ("paper-default", {
        **ONE_SECOND, "relay.policy": "store_forward", "stall.probability": "0.3",
        "stall.max_ms": "5", "receivers": "2", "clock.sender_offset_ms": "3.5",
        "clock.relay_offset_ms": "-1.25", "clock.drift_ppm": "20"}),
    "paper-default-negdrift-lossy-hop2": ("paper-default", {
        **ONE_SECOND, "clock.sender_offset_ms": "-2.75", "clock.relay_offset_ms": "4",
        "clock.drift_ppm": "-35", "hop2.loss_rate": "0.001"}),
    "paper-default-3s-resync-2rx-drift": ("paper-default", {
        "duration_s": "3", "receivers": "2", "clock.sync_interval_s": "0.5",
        "clock.drift_ppm": "35", "clock.sender_offset_ms": "2",
        "clock.relay_offset_ms": "-1"}),
}

GOLDEN = {
    "bandwidth-sweep": {
        "frames_1000000000.csv": "e13ae4f3b859ab796e9ff9f472ba536fc62bced43d4d4f5bb44337ae441f86e4",
        "frames_10000000000.csv": "64aac8b62bf813d7cebf18574e665aa37cd3ea3b6750af57042b4e8c4d136d28",
        "frames_2000000000.csv": "5cb573fef4578bea07c8f987ce4167333cfb177749970fa06d91e0a019eba68f",
        "frames_5000000000.csv": "8a17c39073a9df7fac046b9b2edfface023c8cc386ac637c3563ebe555ff68e9",
        "summary_1000000000.csv": "c222986b28018d5ef1724409aa1667e471a1dfb8c20cc44824c786bb25f59f93",
        "summary_10000000000.csv": "271014bccd5b8c34dec8e66ea5fcaa90eb4144ca0765b626a1983dc6f8be741d",
        "summary_2000000000.csv": "287b0fcfc705dd6631e1229a7dad7c99f5f737576fec43775c92a554bb44143a",
        "summary_5000000000.csv": "075caf1fd750f067fc50f70b8f48f5cf17c727f5abed308999914e3452ac63aa",
        "sweep.csv": "31519a4d409b9e9d282f8e7dfbbcc0042e1dfab6e8828244e154532198ce27b2",
    },
    "paper-default": {
        "frames.csv": "7bf213176c829fc55c9f8e7848620f017302d91a194ff5c98e75c0152abc91a7",
        "summary.csv": "5c459eee258a126047abb947c4ee9ef2d8b6bd3c39d3788cb6a0a1368305b190",
    },
    "paper-default-3s-resync-2rx-drift": {
        "frames.csv": "3732eaf81664da72c837f515f7f6a3723ea2fc884dd84c29e14b54908502c9d4",
        "frames_r1.csv": "d16ba28e50d377708481565edd66c5b7f1c7e0a6480bc72cd56686592ecf77d2",
        "summary.csv": "3a5765a7ad464e22e748ad23564ac5719814a2246cfc9953fbc2a4c28e7bcad7",
        "summary_r1.csv": "e257ac782d1a620628650ebcc4b218ebcf80c3bfebf7d10af910a01277f88065",
    },
    "paper-default-4rx-pps256": {
        "frames.csv": "b8a0b8eb821c9e3117a1eaaaeca37576872b5d8e8de4a854ca4d52cfafc604f7",
        "frames_r1.csv": "d42a7c01543832946391e405a236118129bef25d0c2d431191604cbe4f0fec6d",
        "frames_r2.csv": "fe4ab4cfe9983c23425e6c838720304f7ef6f29eb9e04be53c99385ecfa1e509",
        "frames_r3.csv": "cabf04120ebce6eda29b21fd4fe40eda989b9b83a84f95b69305f1577c4f8491",
        "summary.csv": "8c307753b2f09ceb78a816a06bc54f3851320a2bb4eb4d9384e3fb1bc32c174a",
        "summary_r1.csv": "6c949178c60202e835298b5a91e6f5352c8efdb599115e0267877b318c0e93a0",
        "summary_r2.csv": "620171568a3a8067dd78050adef620c11e0b44d61a4f6d6898da4f493eeda3ee",
        "summary_r3.csv": "228728852d2a864ab284a602f1f420817aa7e1c6a9983186cf0ff918727e1dd0",
    },
    "paper-default-lossy1pct": {
        "frames.csv": "3c1bffff67ef6b93b9c009c09a2f3de07a309a202d016279f699001dbaedf6c7",
        "summary.csv": "5880afafd42d2c1969143441210995839c594faf6ad0482a703169bb5d0e5015",
    },
    "paper-default-negdrift-lossy-hop2": {
        "frames.csv": "e5eb11313d4634de509f5bd73777dde82bf6e4eb2b7668bc7579e19fd2547b38",
        "summary.csv": "3ae0395b3f854426f1ced63782ce6653652a75eede990f10bf2ff6985ed7d38e",
    },
    "paper-default-storefwd-stall-2rx-skew": {
        "frames.csv": "525019b2a69277518ff91ed1da39f24e643c0d8c5c7064617a4ea5ea2c80f8f6",
        "frames_r1.csv": "1220576a56afa194dea883625a7e3c0fb8ada59093fdd5fe6247fda930eacb7b",
        "summary.csv": "e05e0b1317cf636ab84fc909c2043e2e2b29258c6de839514d68907e8780455e",
        "summary_r1.csv": "22b8f629af2d415e15748cd38409f0babf21e45f94c02094685962be16ab098f",
    },
    "paper-probe": {
        "probe.csv": "e64972f113c978ebf80d7e3796be00b12751515314051776a577812a1d639082",
    },
    "paper-protocol": {
        "frames.csv": "0830bcc01a573f85f5f013cccb2d021bcb24fa862934e81ab2a7f877f72a4e9b",
        "summary.csv": "cccaf104bc3cd34196b57be892baa98111e3000f9ce2af22677f8c08da6bff2c",
    },
}


def _csv_digests(scenario: str, overrides: dict, out_dir: Path) -> dict[str, str]:
    cfg = scenario_config(scenario)
    diags = apply_overrides(cfg, {**overrides, "out_dir": str(out_dir)}) + validate(cfg)
    assert diags == [], diags
    run_experiment(cfg, write_outputs=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_csvs_match_golden_digests(case, tmp_path):
    scenario, overrides = CASES[case]
    assert _csv_digests(scenario, overrides, tmp_path) == GOLDEN[case]
