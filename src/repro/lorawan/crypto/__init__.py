"""AES-128 and AES-CMAC used by LoRaWAN frame security.

Pure Python with no crypto dependency.  AES-128 is encryption only,
table-driven (T-tables, per-key cached schedule), which makes it fast
enough to MIC-check every uplink copy, but it is not constant-time.
"""

from repro.lorawan.crypto.aes import aes128_encrypt_block
from repro.lorawan.crypto.cmac import aes_cmac

__all__ = ["aes128_encrypt_block", "aes_cmac"]
