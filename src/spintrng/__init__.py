"""Stochastic MTJ true random number generator simulator.

Behavioral device model, TRNG bitstream generators, Markov-chain
oracles, entropy and statistical test batteries, PVT sweep harness,
and a system-level Monte Carlo benchmark.
"""
