"""Numerical toolkit for fully nonlinear degenerate-elliptic cone
subequations: membership algebra, Riesz characteristics and kernels,
radial one-variable theory, tangential flows and density estimation."""

from . import flow, linalg, radial, riesz, subeq

__version__ = "0.1.0"
