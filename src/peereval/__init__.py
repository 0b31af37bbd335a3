"""peereval: reference-free MT scoring and metric meta-evaluation.

Turns token-level log-probabilities from any translation model into segment
and system quality scores, and meta-evaluates metric scores against human
judgments with outlier-filtered, Fisher-weighted correlations and
significance analysis.
"""

__version__ = "0.1.0"
