"""Toolkit for explaining how price-driver relationships shift across a known
regulatory change date.

Workflow: engineer feature matrices from timestamped market CSVs, fit
gradient-boosted trees or a small feedforward net on sliding windows inside
each regime period, explain the models with SHAP values, and compare the
normalized feature importances between the two periods.
"""

__version__ = "0.1.0"
