"""Cache replacement policies.

All policies implement :class:`~repro.policies.base.ReplacementPolicy` and
plug into :class:`repro.sim.cache.Cache`.  The set mirrors the policies the
paper simulates or discusses:

* baselines: LRU, FIFO, Random, PLRU (tree pseudo-LRU),
* heuristic state of the art: SRRIP, BRRIP, DRRIP (set dueling), DIP, SHiP,
* the offline oracle: Belady's OPT,
* learned policies: Hawkeye (OPTgen + PC classifier), an MLP/perceptron
  reuse predictor, a PARROT-style imitation-learned policy, and Mockingjay
  (PC-indexed reuse-distance predictor with estimated time of reuse),
* a bypass wrapper that skips insertion for a configurable set of PCs or for
  predicted dead-on-arrival blocks (the bypass use case of section 6.3).
"""

from repro.policies.base import (
    CacheLine,
    PolicyAccess,
    ReplacementPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.policies.basic import FIFOPolicy, LRUPolicy, PLRUPolicy, RandomPolicy
from repro.policies.belady import BeladyPolicy
from repro.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.policies.dip import DIPPolicy
from repro.policies.ship import SHiPPolicy
from repro.policies.hawkeye import HawkeyePolicy
from repro.policies.mlp import MLPPolicy
from repro.policies.parrot import ParrotPolicy
from repro.policies.mockingjay import MockingjayPolicy
from repro.policies.bypass import BypassPolicy

__all__ = [
    "CacheLine",
    "PolicyAccess",
    "ReplacementPolicy",
    "available_policies",
    "get_policy",
    "register_policy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "PLRUPolicy",
    "BeladyPolicy",
    "SRRIPPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "DIPPolicy",
    "SHiPPolicy",
    "HawkeyePolicy",
    "MLPPolicy",
    "ParrotPolicy",
    "MockingjayPolicy",
    "BypassPolicy",
]
