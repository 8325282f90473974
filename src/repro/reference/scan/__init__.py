"""Scan operators as monoids, the scalar scan algorithms and the
oracle-only vectorised scans."""
