"""Contract-incentivized asynchronous federated learning, simulated end to end.

The package is a plain numpy/scipy library. `contracts` prices a menu of
effort/reward pairs for a heterogeneous client market, `datasets` builds and
partitions the data, `simulation` runs the asynchronous training loop with
quality-gated admission, `baselines` provides synchronous reference
algorithms, and `experiment` ties everything into reproducible artifact-
producing runs. The `contractfl` console script exposes the same pipeline.

The package itself exports nothing: each name is reached through the module
that defines it, as `contractfl.experiment.prepare` is.
"""
