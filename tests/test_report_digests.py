"""Golden digests: the sim's reports are a pure function of (config, seed).

Every report CSV of the four canned scenarios (streams cut to 1 s; the probe
runs as it is) and of six ``paper-default`` variants is pinned by its
sha256. The variants cover what the canned scenarios leave out: 1% loss on
both hops; four receivers with 256 B packets (four hop-2 links, senders and
receivers, and many small runs); and store-and-forward with relay stalls,
two receivers and offset, drifting sender and relay clocks; and negative
drift with opposite offsets and hop-2 loss, under which a node's local
reading is not strictly increasing in true time; and 3 s with a resync
every 0.5 s, two receivers and offset, drifting sender and relay clocks, the
only pin whose run syncs again after t = 0; and 0.2 s with the per-packet
trace on, the only pin of ``trace.csv`` (about 2.7 MB). The 3 s pin was
re-pinned when each reading came to be corrected with the estimate in force
at it, interpolated between the exchanges around it, instead of with the
last exchange's: its network latencies moved to within a few ns of the
ground truth (its mean ``network_l`` from 1.234830 to 1.199495 ms). The
two lossy pins were
re-pinned when NACK recovery became reliable at paper scale: loss is drawn
per loss, and each missing range has its own retry budget, so both now
complete 30 of 30 frames (0 and 18 before). Every pin but the probe's was
re-pinned when switching jitter came to be drawn only for the packets that
can hold a run's first or last arrival (``netem._run_extremes``): each
run's extremes keep their distribution, but the switch stream is read in
another order, so the jittered sample path changed; the losses and the
frames completed did not. The probe sends one packet at a time, so its
draws, and its pin, stayed as they were. Apart from that re-pin, a change
to how the sim computes arrivals or routes a hop must reproduce the old
reports byte for byte.

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
    "paper-default-trace": ("paper-default", {"duration_s": "0.2", "trace.enabled": "true"}),
}

GOLDEN = {
    "bandwidth-sweep": {
        "frames_1000000000.csv": "550beb4819fa615885fcf8dffec14d24f1deb2dd9190bac0bc21c7dd17a70f60",
        "frames_10000000000.csv": "f33b58b18e9dd53137bc2156387a63b15b33414595b2cb8e9257771f06675078",
        "frames_2000000000.csv": "6e9887b84b89b8f3f7158cd986ef2ef07979a3c2383ac8ca529267dfb017e4a7",
        "frames_5000000000.csv": "1530f88341fbea2087caeb852101289953ad9aae74948749d50cbf70a34e6413",
        "summary_1000000000.csv": "4a5800b2886a9be519cc856efeda886981dc8bbcbc6a0e24a19d29c04e226589",
        "summary_10000000000.csv": "f85a67ee3f244f15eecf2b1d4ba86d034de0d32f4eae43a6f59eff11124ca645",
        "summary_2000000000.csv": "545656acaf980183df8b62f811abd20a059e3aa9aa5a1d6d6c4f58956b1f815f",
        "summary_5000000000.csv": "d560517003d9b6203e41a4558b00afe9c878da3dc77497d8ad3493bdc4e26992",
        "sweep.csv": "5a6edea110a3817a9f9ea837ae741b6aa0600d1d1cd268fc9737f9142a218de8",
    },
    "paper-default": {
        "frames.csv": "efda5ebd3fa91cfc6644e93108ea9143bf2d1a1478cad4afd01156a9bf9ef1e0",
        "summary.csv": "bafd5906f19892edcd9cfd27c98d55ee4a41680f4567c8fb7c9a2d91fffdfe9d",
    },
    "paper-default-3s-resync-2rx-drift": {
        "frames.csv": "d2739812d92c7c54a3e6435624b191d4c1f4c16578c9983416d46b21f376808b",
        "frames_r1.csv": "126e79cdb2e9afbe84ddfcf22d411a196e8002bd64dd4f7fffb6e5bd895a19ba",
        "summary.csv": "6a0b218f365e51c6cbb59b47d8aa2a732ddddea14bca9c3fe3aa90e04496ac45",
        "summary_r1.csv": "35e4854174146d18a00b50d0797d14a236f7240507ab95ee4b856ee80d15a863",
    },
    "paper-default-4rx-pps256": {
        "frames.csv": "4559cc6f67cf10d536cd71ab912a52397adee7c5d29416e181333a2ba72babf2",
        "frames_r1.csv": "d2c7f601cb55743340e1a17a71a3fd754ae59ae1b7f5d7a5ab483077d7e212e9",
        "frames_r2.csv": "835ca8f3385f60be60adb718398d9887dda056d6f39f74e30be924a982bd727e",
        "frames_r3.csv": "994a39cc2781e4826d67b8442d010926c4ca96fa3e3d13b712d399609fa0e04b",
        "summary.csv": "f8f475c5c4536ecdada1d6a1e828eb05395e95deb9f32875e3235c3621474778",
        "summary_r1.csv": "33b90e31d72efe441430b0cdc3d821c3a6667eb587a3aed8c0d48b94c679b2fd",
        "summary_r2.csv": "87f54840faa91b2cd0abacfb07c3675800b56174bd2860222d65605f4ec57504",
        "summary_r3.csv": "d73b1e2c2bf61f55767d1fdb388369faee9543af7ecc29f8dcb594592ac152fc",
    },
    "paper-default-lossy1pct": {
        "frames.csv": "3b80fea7ccd0c5ccae8f9c868f19eb5c48b7f641f4826d8e3e8d83c2d7db7751",
        "summary.csv": "9578fd36439a009a46d26c19e9a3360e623440e49bbb7fad5adca25bd800c874",
    },
    "paper-default-negdrift-lossy-hop2": {
        "frames.csv": "25f0e1d65b1e1b1a9dd7f169faccfaee30cafb6f755ce52c5abfdf40f94285cb",
        "summary.csv": "b7413fc48a3d74de323d9c19fc9fd5542859ad7dc7aacdce1fd51cc8ba253c5e",
    },
    "paper-default-storefwd-stall-2rx-skew": {
        "frames.csv": "471aa5fdc0883a8a65b1217892c37c9fc84db345e6687d0e9d47494d03cae1f2",
        "frames_r1.csv": "9ef16f72b9b35ee92568e5a16dbb8d3845ddbbaf07ea157d4f50f98438010731",
        "summary.csv": "bc9bb9ef802bfddccb1e7b8c5ba35cc46a2db4557b8bac9bb81039a1e5a516ff",
        "summary_r1.csv": "c43de542bb64083e1134b9f5f3f07a63f97eed04fa0ac9ac78c65da17094eb98",
    },
    "paper-default-trace": {
        "frames.csv": "4cca5700d1a6a7ecebb864aa60cec3075d49b4e51356f1246b1b879053dec7b9",
        "summary.csv": "aa12e27288a8c39bbbaad91c58cc90bf823baaa5de318f7510890a32c82d6e6f",
        "trace.csv": "7c714fb445f46ef335df08c21d72630af973d6fb776955116c68a6170611876d",
    },
    "paper-probe": {
        "probe.csv": "e64972f113c978ebf80d7e3796be00b12751515314051776a577812a1d639082",
    },
    "paper-protocol": {
        "frames.csv": "7bc01e96b6e3d00b6e27fd19b5f3dd3a8dedbc4c1f9edf26d910513b8c825dc5",
        "summary.csv": "5f51837d9c98df4851c92cfa9bd7e41079676e0246971e29f21761c2a3830de6",
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
