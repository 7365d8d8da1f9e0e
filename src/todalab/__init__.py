"""Numerical laboratory for a two-component Toda energy on the flat torus.

Subpackage map:

- ``spectral``    periodic fields, FFT calculus, Poisson inversion
- ``geometry``    conformal metrics, curvature, quadrature, local expansions
- ``bubble``      closed-form bubble profile and annulus capacity
- ``functional``  the reduced two-field functional and its Newton-CG descent
- ``greens``      singular Green-function systems and expansion extraction
- ``testfn``      concentration test functions and sharp energy evaluation
- ``diagnostics`` blow-up sweeps and rescaled-profile comparison
- ``cli``         command-line front end
"""

__version__ = "0.1.0"
