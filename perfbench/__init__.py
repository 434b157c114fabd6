"""End-to-end benchmark of the paper-grid campaigns (see README.md)."""
