"""Out-of-process benchmark of the hybrid analog-digital solver (see README.md)."""
