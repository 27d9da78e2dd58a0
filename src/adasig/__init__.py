"""Adaptive classification of nonlinearly parameterized temporal signals.

A bank of small fixed-weight dynamical subsystems (one per candidate signal
family) watches a measured signal; each subsystem couples a filter copy to a
unit-circle rotator that sweeps the family's parameter range and stalls
where the filter mismatch vanishes. The package provides the subsystem
dynamics with explicit tuning formulas, a deterministic fixed-step
integrator, verification tools for the underlying excitation and winding
arguments, a sigmoid-network realization of the same dynamics, the decision
read-outs, and a config-driven command line runner.
"""
