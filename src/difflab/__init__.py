"""Diffusion adaptive estimation over networks with noisy links.

Simulation laboratory for adapt-then-combine diffusion filters (LMS,
correntropy, and total-correntropy variants) exchanging data and weight
estimates over noisy channels, plus the closed-form mean and
mean-square analysis they admit under Gaussian noise.

The package exports nothing at its top level: import its submodules
(`difflab.config`, `difflab.harness`, `difflab.simulate`, ...).
"""
