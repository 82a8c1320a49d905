"""chaintrace: kill-chain detection over simulated enterprise log data.

Pipeline: simulate -> ingest -> pseudonymize -> detect -> train/score.
"""
