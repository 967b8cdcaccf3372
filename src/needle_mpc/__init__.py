"""Model-predictive steering of a tendon-driven needle.

Import each name from the module that owns it: kinematics (the bilinear tip
model), mapping (tensions), optimizer (the box-constrained solver), mpc (the
receding-horizon controller), references, harness (simulation and output
files), scenario, calibration and cli.
"""
