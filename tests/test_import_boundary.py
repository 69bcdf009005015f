"""The daemon's and the receive chain's import graphs hold only what they run.

The network server only runs the FB consistency check, so importing the
daemon loads neither scipy nor the simulator: the load generator is a
lazy export of :mod:`repro.service`, and the calibrated FB noise model
lives in :mod:`repro.server.fusion`.  The SDR receive chain
(:class:`~repro.pipeline.BatchPipeline` and
:class:`~repro.core.softlora.SoftLoRaGateway` with their default AIC
onset picker and dechirp FB estimator) runs on numpy alone too: its zoom
FFT is built on :mod:`numpy.fft`.  scipy is imported at first use only
by the DSP that needs it: the ``"de"`` reference FB estimator, the
envelope and spectrogram onset detectors, and real-noise synthesis.  A warmed sweep worker loads no scipy either.  The link
layer the daemon loads has no over-the-air join and its AES no decryption:
devices are provisioned by ABP, and CMAC and the payload keystream only
encrypt.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages the daemon must not load.
DAEMON_FREE_OF = (
    "scipy",
    "repro.sim",
    "repro.pipeline",
    "repro.attack",
    "repro.analysis",
    "repro.experiments",
)

#: Refuses every scipy import, as an interpreter without scipy would.
BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, _NoScipy())
"""


#: Opens the durable store, records and reads back one node across a
#: reopen, and checks that the removed sharded backend and cache option
#: are refused.
OPEN_DURABLE_STORE = """
import tempfile
from pathlib import Path

from repro.errors import ConfigurationError
from repro.server.store import open_store

with tempfile.TemporaryDirectory() as tmp:
    spec = f"sqlite:{Path(tmp) / 'fb.sqlite'}"
    store = open_store(spec)
    store.record("26000000", -20e3, 1.0)
    store.close()
    store = open_store(spec)
    assert store.history("26000000") == [(1.0, -20e3)], store.history("26000000")
    store.close()
for removed in ("sharded-sqlite:x", "sqlite:x?cache=8"):
    try:
        open_store(removed)
    except ConfigurationError:
        pass
    else:
        raise AssertionError(f"open_store accepted {removed!r}")
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_daemon_import_loads_no_dsp_or_simulator():
    code = f"""
import json, sys
import repro.service.daemon
import repro.service.__main__
from repro.server import NetworkServer
NetworkServer()
print(json.dumps(sorted(m for m in {DAEMON_FREE_OF!r} if m in sys.modules)))
"""
    assert json.loads(run_fresh(code)) == []


def test_daemon_loads_no_join_fingerprinter_or_aes_decryption():
    code = """
import json, sys
import repro.service.daemon
from repro.server import NetworkServer
NetworkServer()
import repro.lorawan.crypto as crypto
loaded = [m for m in ("repro.lorawan.join", "repro.attack.fingerprint") if m in sys.modules]
print(json.dumps([loaded, hasattr(crypto, "aes128_decrypt_block")]))
"""
    assert json.loads(run_fresh(code)) == [[], False]


def test_daemon_resolves_verdicts_without_scipy():
    code = (
        BLOCK_SCIPY
        + OPEN_DURABLE_STORE
        + """
from repro.lorawan.mac import build_uplink
from repro.lorawan.security import SessionKeys
from repro.server import GatewayForward, NetworkServer, ServerStatus
from repro.service.__main__ import _parse_args

_parse_args(["--store", "memory"])
keys = SessionKeys.derive_for_test(0x26000000)
server = NetworkServer()
server.register_device(0x26000000, keys)
server.bootstrap_fb_profile(0x26000000, [-20e3, -20e3 + 5.0, -20e3 - 5.0])
frame = build_uplink(keys, 0x26000000, 0, b"\\x01")
(verdict,) = server.process_step(
    [
        GatewayForward("gw-0", frame, 10.0, -20e3 + 1.0, 5.0),
        GatewayForward("gw-1", frame, 10.001, -20e3 - 1.0, 0.0),
    ]
)
assert verdict.status is ServerStatus.ACCEPTED, verdict
print("ok")
"""
    )
    assert run_fresh(code).strip() == "ok"


def test_receive_chain_runs_without_scipy():
    code = (
        BLOCK_SCIPY
        + """
import json

import numpy as np

from repro.core.softlora import SoftLoRaGateway
from repro.experiments.common import synthesize_capture
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.phy.frame import PhyFrame, PhyTransmitter
from repro.pipeline import BatchPipeline, CaptureBatch
from repro.sdr.iq import IQTrace
from repro.sdr.noise import complex_awgn, noise_power_for_snr

rng = np.random.default_rng(5)
for sf, rate in ((7, 1e6), (9, 0.5e6)):
    config = ChirpConfig(spreading_factor=sf, sample_rate_hz=rate)
    captures = [synthesize_capture(config, rng, snr_db=20.0, fb_hz=-20e3) for _ in range(3)]
    batch = CaptureBatch.from_traces([capture.trace for capture in captures])
    result = BatchPipeline(config=config).run(batch)
    assert np.all(np.abs(result.fb_hz + 20e3) < 120.0), result.fb_hz

config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
wave = PhyTransmitter(config, fb_hz=-20e3).modulate(PhyFrame(b"receive chain"), phase=0.4)
samples = np.concatenate([np.zeros(1500, dtype=complex), wave])
noise_power = noise_power_for_snr(1.0, 20.0)
trace = IQTrace(samples + complex_awgn(len(samples), noise_power, rng), config.sample_rate_hz)
gateway = SoftLoRaGateway(config=config, commodity=CommodityGateway())
forward = gateway.process_capture(trace, "gw-0", 20.0, noise_power=noise_power)
assert forward.mac_bytes == b"receive chain", forward
assert abs(forward.fb_hz + 20e3) < 120.0, forward.fb_hz
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    )
    assert json.loads(run_fresh(code)) == []


def test_loadgen_names_stay_reachable_from_service():
    code = """
import sys
import repro.service as service
assert "repro.service.loadgen" not in sys.modules
from repro.service import LoadPlan, build_plan, replay
from repro.service import loadgen
assert (LoadPlan, build_plan, replay) == (loadgen.LoadPlan, loadgen.build_plan, loadgen.replay)
for name in service.__all__:
    getattr(service, name)
print("ok")
"""
    assert run_fresh(code).strip() == "ok"
