"""blocktune: throughput-oriented block size tuning for batch-committing
ledger networks.

The pipeline: a discrete-event simulator of the orderer -> validate ->
commit path produces per-block performance measurements; three regression
models learn storing time and latency from them; a genetic search over
transaction-to-block assignments minimizes total processing time under
per-block count and byte caps; the largest block in the best assignment is
the recommended block size, which the simulator then validates against
neighboring sizes.
"""

__version__ = "0.1.0"
