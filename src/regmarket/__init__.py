"""Regression market for lagged time-series features.

A data buyer (the central agent) fits its target on lagged features from
itself and from data sellers (support agents). Sellers price each offered
feature with a reservation value; clearing converts reservations into
per-feature lasso penalties, solves the weighted lasso, and pays each
seller the absolute product of its reservation and the cleared coefficient.
The buyer's cleared loss plus all payments never exceeds its own-features
baseline loss.
"""

from .errors import *
from .regression import *
from .timeseries import *
from .market import *
from .data_io import *
from .experiments import *

__version__ = "0.1.0"
