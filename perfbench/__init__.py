"""The repository benchmark: three flagship workloads, one command.

``python3 perfbench/run.py --workload <name> --seed N --seconds S
--trace 0|1`` runs one workload in a fresh interpreter and prints one
JSON result as its last line; ``--workload all`` runs every workload,
each in its own interpreter.  See ``perfbench/README.md``.
"""
