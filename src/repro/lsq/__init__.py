"""Load/store queue searches: forwarding, rejection, and violation search."""

from repro.lsq.queues import lq_violation_search_soa, sq_forward_search_soa

__all__ = ["lq_violation_search_soa", "sq_forward_search_soa"]
