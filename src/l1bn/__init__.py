"""L1-norm and L2-norm batch normalization: layers, oracles, experiments."""

__version__ = "0.1.0"
