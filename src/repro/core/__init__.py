"""Core DSMS: tuples, buffers, operators, query graphs, execution, ETS."""
