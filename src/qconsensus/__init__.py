"""Asynchronous pairwise consensus on graphs: protocol simulation paired
with exact random-walk and electric-network analysis."""
