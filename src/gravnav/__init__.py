"""Gravimetric map-matching aiding for inertial navigation.

Modules by concern: ``geomap`` (rasters, gated lookup, variability),
``assoc`` (probabilistic data association), ``pmht`` (batch EM tracker),
``inertial`` (truth/dead-reckoning/field-sensor simulation), ``fusion``
(UKF integration), ``harness`` (scenarios and Monte Carlo campaigns),
``config`` (scenario configuration), ``errors`` (exception types), ``cli``
(command-line entry point).
"""

__version__ = "0.1.0"
