"""Biased annotator-noise simulation and f-beta loss experiments for
binary segmentation masks.

The package is its modules (`segnoise.noise`, `segnoise.oracle`, ...):
import the one you need. Importing the package itself loads none of
them, so that one module, or one command, does not import the rest.
"""

__version__ = "0.1.0"
