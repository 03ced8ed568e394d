"""Executable specifications: the straightforward implementations the
product's optimized paths must reproduce exactly."""
