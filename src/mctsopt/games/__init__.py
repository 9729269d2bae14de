"""Desk-scale game environments with exact ground truth."""
