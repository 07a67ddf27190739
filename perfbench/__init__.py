"""End-to-end benchmark of the default request path (see README.md)."""
