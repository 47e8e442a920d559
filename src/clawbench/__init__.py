"""clawbench: all-subkeys-recovery attacks on 6-round Feistel-2* ciphers,
with classical claw finding and desk-scale Grover / subset-walk simulators."""

__version__ = "0.1.0"
