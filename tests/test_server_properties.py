"""Property tests: the network server is invariant to delivery order.

Gateways race to deliver their forwards; backhaul reorders and
occasionally duplicates them.  Whatever the interleaving, the server
must resolve exactly one uplink per (DevAddr, FCnt) and issue the same
fused verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lorawan.mac import build_uplink
from repro.lorawan.security import SessionKeys
from repro.server import FusionPolicy, GatewayForward, NetworkServer
from repro.core.detector import FbDatabase, ReplayDetector

N_DEVICES = 3
DEV_ADDRS = [0x26000000 + i for i in range(N_DEVICES)]
KEYS = {addr: SessionKeys.derive_for_test(addr) for addr in DEV_ADDRS}
#: Pre-built frames: device index x fcnt, so hypothesis never pays AES costs.
FRAMES = {
    (addr, fcnt): build_uplink(KEYS[addr], addr, fcnt, b"\x01")
    for addr in DEV_ADDRS
    for fcnt in (0, 1)
}


@st.composite
def delivery_schedules(draw):
    """A set of uplinks, each heard by 1..4 gateways, plus a delivery order."""
    forwards = []
    n_uplinks = draw(st.integers(min_value=1, max_value=4))
    used = draw(
        st.lists(
            st.sampled_from(sorted(FRAMES)), min_size=n_uplinks, max_size=n_uplinks, unique=True
        )
    )
    for uplink_index, (addr, fcnt) in enumerate(used):
        base_arrival = 100.0 + 40.0 * uplink_index
        n_gateways = draw(st.integers(min_value=1, max_value=4))
        for gw in range(n_gateways):
            forwards.append(
                GatewayForward(
                    gateway_id=f"gw-{gw}",
                    mac_bytes=FRAMES[(addr, fcnt)],
                    arrival_time_s=base_arrival
                    + draw(st.floats(min_value=0.0, max_value=0.05)),
                    fb_hz=-20e3 + draw(st.floats(min_value=-200.0, max_value=200.0)),
                    snr_db=draw(st.floats(min_value=-20.0, max_value=30.0)),
                )
            )
    order = draw(st.permutations(range(len(forwards))))
    # Duplicate a slice of the schedule (backhaul retransmissions).
    n_dupes = draw(st.integers(min_value=0, max_value=len(forwards)))
    dupes = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(forwards) - 1),
            min_size=n_dupes,
            max_size=n_dupes,
        )
    )
    return forwards, [forwards[i] for i in order] + [forwards[i] for i in dupes]


def fresh_server(policy: FusionPolicy) -> NetworkServer:
    server = NetworkServer(
        fusion=policy,
        detector=ReplayDetector(database=FbDatabase()),
    )
    for addr, keys in KEYS.items():
        server.register_device(addr, keys)
    return server


def verdict_fingerprint(verdict):
    """Everything order-independence promises about one verdict."""
    return (
        verdict.status,
        verdict.dev_addr,
        verdict.fcnt,
        verdict.timestamp_s,
        None if verdict.fused is None else verdict.fused.fb_hz,
        None if verdict.fused is None else verdict.fused.sigma_hz,
        None if verdict.fused is None else verdict.fused.best_gateway_id,
        tuple(sorted(verdict.gateway_ids)),
    )


@settings(max_examples=60, deadline=None)
@given(schedule=delivery_schedules(), policy=st.sampled_from(list(FusionPolicy)))
def test_any_delivery_order_same_verdicts(schedule, policy):
    canonical_forwards, shuffled = schedule
    reference = fresh_server(policy).process_step(canonical_forwards)
    shuffled_verdicts = fresh_server(policy).process_step(shuffled)

    # Exactly one uplink per (DevAddr, FCnt), however deliveries raced.
    keys = [(v.dev_addr, v.fcnt) for v in shuffled_verdicts]
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted((v.dev_addr, v.fcnt) for v in reference)

    # And the fused verdicts are identical, uplink for uplink.
    assert [verdict_fingerprint(v) for v in shuffled_verdicts] == [
        verdict_fingerprint(v) for v in reference
    ]


@settings(max_examples=40, deadline=None)
@given(
    fbs=st.lists(
        st.floats(min_value=-25e3, max_value=-17e3), min_size=1, max_size=6
    ),
    snrs=st.data(),
)
def test_inverse_variance_sigma_never_worse_than_best_link(fbs, snrs):
    from repro.server import fuse_fb
    from repro.sim.network import FbMeasurementModel

    model = FbMeasurementModel()
    contribs = [
        GatewayForward(
            gateway_id=f"gw-{i}",
            mac_bytes=FRAMES[(DEV_ADDRS[0], 0)],
            arrival_time_s=100.0,
            fb_hz=fb,
            snr_db=snrs.draw(st.floats(min_value=-25.0, max_value=30.0)),
        )
        for i, fb in enumerate(fbs)
    ]
    fused = fuse_fb(contribs, FusionPolicy.INVERSE_VARIANCE, model)
    best_sigma = min(model.sigma_hz(c.snr_db) for c in contribs)
    assert fused.sigma_hz <= best_sigma * (1.0 + 1e-12)
    lo = min(c.fb_hz for c in contribs)
    hi = max(c.fb_hz for c in contribs)
    assert lo - 1e-9 <= fused.fb_hz <= hi + 1e-9


def clip_sigma_hz(model, snr_db, spreading_factor=None):
    """Oracle: ``FbMeasurementModel.sigma_hz`` in its numpy ``np.clip`` form.

    The model now clamps with plain ``min``/``max``; this is the earlier
    implementation, kept so the property below pins the two bit for bit.
    """
    import numpy as np

    raw = model.ceiling_hz * 10.0 ** (-(snr_db - model.reference_snr_db) / 20.0)
    sigma = np.clip(raw, model.floor_hz, model.ceiling_hz)
    if spreading_factor is not None:
        scale = 2.0 ** -(np.asarray(spreading_factor, dtype=float) - model.reference_sf)
        sigma = np.clip(sigma * scale, model.floor_hz, model.ceiling_hz)
    return float(sigma)


link_snrs = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False)
spreading_factors = st.none() | st.integers(min_value=7, max_value=12)


@settings(max_examples=400, deadline=None)
@given(snr_db=link_snrs, as_numpy=st.booleans(), spreading_factor=spreading_factors)
def test_sigma_hz_equals_clip_oracle_bitwise(snr_db, as_numpy, spreading_factor):
    import numpy as np

    from repro.server.fusion import FbMeasurementModel

    model = FbMeasurementModel()
    snr = np.float64(snr_db) if as_numpy else snr_db
    sigma = model.sigma_hz(snr, spreading_factor)
    assert type(sigma) is float
    assert sigma.hex() == clip_sigma_hz(model, snr, spreading_factor).hex()


class _UnitNormals:
    """An rng stand-in whose normal draws are all 1, exposing the sigmas."""

    def standard_normal(self, shape):
        import numpy as np

        return np.ones(shape)


@settings(max_examples=100, deadline=None)
@given(
    snrs_db=st.lists(link_snrs, min_size=1, max_size=32),
    spreading_factor=spreading_factors,
)
def test_measure_batch_sigmas_match_scalar_sigma(snrs_db, spreading_factor):
    """``measure_batch`` draws each frame's noise at exactly that frame's ``sigma_hz``.

    Both raise 10 to the SNR power with the C library's ``pow``: the
    scalar through Python's ``**``, the batch through
    ``np.float_power``, whose float64 loop gives libm's bits with and
    without numpy's AVX-512 dispatch (``np.power``'s AVX-512 loop
    differs in the last bits).  So the two agree bit for bit.
    """
    import numpy as np

    from repro.server.fusion import FbMeasurementModel

    model = FbMeasurementModel()
    snrs = np.array(snrs_db)
    sfs = None if spreading_factor is None else np.full(len(snrs), spreading_factor)
    batch = model.measure_batch(np.zeros(len(snrs)), snrs, _UnitNormals(), sfs)
    scalar = np.array([model.sigma_hz(s, spreading_factor) for s in snrs_db])
    np.testing.assert_array_equal(batch, scalar)
    assert np.all((batch >= model.floor_hz) & (batch <= model.ceiling_hz))
