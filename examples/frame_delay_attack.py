#!/usr/bin/env python3
"""The frame delay attack, end to end -- and its detection.

Reproduces the paper's core narrative (Secs. 4, 7, 8.1.1):

1. a victim device transmits; the replayer jams the gateway *inside the
   stealthy window* (the RN2483 silently drops the frame, no OS alert);
2. the eavesdropper records the waveform and hands it to the replayer;
3. after τ = 120 s the replayer re-transmits it -- bits untouched, MIC
   valid, frame counter fresh;
4. a commodity gateway accepts the replay and mis-timestamps every
   reading by τ;
5. the SoftLoRa gateway forwards the replay's frequency bias; its network
   server sees it deviate from the device's profile by the replay
   chain's offset, and drops the frame.

Run:  python examples/frame_delay_attack.py
"""

import numpy as np

from repro import (
    ChirpConfig,
    CommodityGateway,
    DriftingClock,
    EndDevice,
    Oscillator,
    SessionKeys,
    SoftLoRaGateway,
)
from repro.attack import Eavesdropper, FrameDelayAttack, Replayer, StealthyJammer
from repro.sdr.receiver import SdrReceiver
from repro.server import FusionPolicy, GatewayForward, NetworkServer


def main() -> None:
    rng = np.random.default_rng(7)
    config = ChirpConfig(spreading_factor=8, sample_rate_hz=0.5e6)

    dev_addr = 0x26012002
    keys = SessionKeys.derive_for_test(dev_addr)
    device = EndDevice(
        name="victim",
        dev_addr=dev_addr,
        keys=keys,
        radio_oscillator=Oscillator.lora_end_device(rng),
        clock=DriftingClock(drift_ppm=40.0),
        spreading_factor=8,
        rng=rng,
    )

    # Two gateways watch the same channel: a commodity one and SoftLoRa.
    naive = CommodityGateway(name="commodity")
    naive.register_device(dev_addr, keys)
    softlora = SoftLoRaGateway(config=config, commodity=CommodityGateway(name="softlora-side"))
    server = NetworkServer(mac=softlora.commodity, fusion=FusionPolicy.BEST_SNR)
    server.register_device(dev_addr, keys)
    server.bootstrap_fb_profile(dev_addr, [device.fb_hz + e for e in (-20.0, 5.0, 30.0)])

    # The adversary: jammer + eavesdropper + single-USRP replayer.
    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(rng),
        eavesdropper=Eavesdropper(receiver=SdrReceiver(sample_rate_hz=config.sample_rate_hz)),
        rng=rng,
    )
    print(f"replay chain adds {attack.replayer.chain_fb_offset_hz:+.0f} Hz of frequency bias")

    # The attacked uplink.
    t_event = 5000.0
    device.take_reading(333.0, t_event)
    uplink = device.transmit(t_event + 5.0)
    waveform = device.modulate(uplink, config)
    tau = 120.0
    outcome = attack.execute(uplink, delay_s=tau, waveform=waveform)

    windows = attack.jammer.windows_for(uplink.spreading_factor, len(uplink.mac_bytes))
    print(f"\njamming onset {1e3 * (outcome.jam_onset_s - uplink.emission_time_s):.1f} ms "
          f"after frame start -- inside the stealthy window "
          f"[{windows.w1_s * 1e3:.0f}, {windows.w2_s * 1e3:.0f}] ms")
    print(f"gateway-side outcome of the original frame: {outcome.jam_outcome.value} "
          "(no alert raised)")

    # The commodity gateway sees only the replay -- and trusts it.
    naive_view = naive.receive_frame(outcome.replayed.mac_bytes, outcome.replayed.arrival_time_s)
    spoofed = naive_view.readings[0]
    print(f"\ncommodity gateway: {naive_view.status.value}")
    print("  MIC valid, frame counter fresh -- crypto does not help")
    print(f"  reading timestamped at t={spoofed.global_time_s:.1f} s "
          f"(true event: t={t_event:.1f} s  ->  "
          f"spoofed by {spoofed.global_time_s - t_event:+.1f} s)")

    # SoftLoRa checks the frequency bias first.
    replay = outcome.replayed
    (softlora_view,) = server.process_step(
        [GatewayForward("gw-0", replay.mac_bytes, replay.arrival_time_s, replay.fb_hz, 10.0)]
    )
    print(f"\nSoftLoRa gateway: {softlora_view.status.value}")
    print(f"  {softlora_view.detail}")
    print("  replayed frame dropped; no spoofed timestamp enters the database")


if __name__ == "__main__":
    main()
