"""Natural-language query parsing (the shared NLU layer).

Both retrievers, the answer generator and the benchmark generator share one
structured view of a question: :class:`QueryIntent`.  Parsing combines

* symbolic extraction of program counters and memory addresses (hex
  literals, classified by the preceding word or by length),
* workload / policy identification against the names known to the database,
  with an embedding-similarity fallback for fuzzy mentions (Sieve's
  "sentence embedder" first stage), and
* keyword rules that classify the question into the CacheMindBench
  categories.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.llm.embeddings import HashingEmbedder

# ----------------------------------------------------------------------
# question types (the 11 CacheMindBench categories plus helpers)
# ----------------------------------------------------------------------
HIT_MISS = "hit_miss"
MISS_RATE = "miss_rate"
POLICY_COMPARISON = "policy_comparison"
COUNT = "count"
ARITHMETIC = "arithmetic"
TRICK = "trick"
CONCEPT = "concept"
CODE_GENERATION = "code_generation"
POLICY_ANALYSIS = "policy_analysis"
WORKLOAD_ANALYSIS = "workload_analysis"
SEMANTIC_ANALYSIS = "semantic_analysis"
PC_LIST = "pc_list"
SET_ANALYSIS = "set_analysis"
GENERAL = "general"

TRACE_GROUNDED_TYPES = (HIT_MISS, MISS_RATE, POLICY_COMPARISON, COUNT,
                        ARITHMETIC, TRICK)
REASONING_TYPES = (CONCEPT, CODE_GENERATION, POLICY_ANALYSIS,
                   WORKLOAD_ANALYSIS, SEMANTIC_ANALYSIS)

_HEX_RE = re.compile(r"0x[0-9a-fA-F]+")
_LABELLED_HEX_RE = re.compile(
    r"(pc|program counter|address|addr)\s*[:=]?\s*(0x[0-9a-fA-F]+)",
    re.IGNORECASE,
)

#: policy aliases accepted in questions.
POLICY_ALIASES: Dict[str, str] = {
    "lru": "lru",
    "least recently used": "lru",
    "fifo": "fifo",
    "belady": "belady",
    "belady's optimal": "belady",
    "opt": "belady",
    "min": "belady",
    "parrot": "parrot",
    "mlp": "mlp",
    "perceptron": "mlp",
    "multi-layer perceptron": "mlp",
    "mockingjay": "mockingjay",
    "ship": "ship",
    "srrip": "srrip",
    "brrip": "brrip",
    "drrip": "drrip",
    "rrip": "srrip",
    "dip": "dip",
    "hawkeye": "hawkeye",
    "random": "random",
    "plru": "plru",
    "bypass": "bypass",
}


@dataclass
class QueryIntent:
    """Structured representation of a natural-language question."""

    question: str
    question_type: str = GENERAL
    pcs: List[str] = field(default_factory=list)
    addresses: List[str] = field(default_factory=list)
    workloads: List[str] = field(default_factory=list)
    policies: List[str] = field(default_factory=list)
    aggregation: Optional[str] = None     # "mean" | "count" | "std" | "sum"
    target_field: Optional[str] = None    # e.g. "evicted_reuse_distance"
    comparison: Optional[str] = None      # "lowest" | "highest" | "best" | "worst"
    wants_sets: bool = False
    wants_pc_list: bool = False
    #: the question is about hits ("hit rate", "most hits") rather than
    #: misses; answers must report/rank by 1 - miss rate.
    wants_hit_rate: bool = False

    @property
    def pc(self) -> Optional[str]:
        return self.pcs[0] if self.pcs else None

    @property
    def address(self) -> Optional[str]:
        return self.addresses[0] if self.addresses else None

    @property
    def workload(self) -> Optional[str]:
        return self.workloads[0] if self.workloads else None

    @property
    def policy(self) -> Optional[str]:
        return self.policies[0] if self.policies else None

    def describe(self) -> str:
        parts = [f"type={self.question_type}"]
        if self.pcs:
            parts.append("pc=" + ",".join(self.pcs))
        if self.addresses:
            parts.append("address=" + ",".join(self.addresses))
        if self.workloads:
            parts.append("workload=" + ",".join(self.workloads))
        if self.policies:
            parts.append("policy=" + ",".join(self.policies))
        if self.aggregation:
            parts.append(f"aggregation={self.aggregation}")
        if self.comparison:
            parts.append(f"comparison={self.comparison}")
        return " ".join(parts)


def resolve_comparison(comparison: Optional[str],
                       wants_hit_rate: bool = False) -> bool:
    """Map a parsed superlative onto the miss-rate ordering.

    Returns True when the winner is the policy with the LOWEST miss rate.
    ``best``/None always mean the winning policy; ``worst`` the opposite;
    ``lowest``/``highest`` refer to the named metric, so hit-oriented
    questions invert them.  Shared by the Sieve answer path and Ranger's
    code generator so the two cannot diverge.
    """
    if comparison in ("best", None):
        return True
    if comparison == "worst":
        return False
    return (comparison == "highest") == wants_hit_rate


class QueryParser:
    """Parses questions into :class:`QueryIntent` objects."""

    def __init__(self, known_workloads: Sequence[str] = (),
                 known_policies: Sequence[str] = (),
                 embedder: Optional[HashingEmbedder] = None):
        self.known_workloads = [name.lower() for name in known_workloads]
        self.known_policies = [name.lower() for name in known_policies]
        self.embedder = embedder if embedder is not None else HashingEmbedder()

    # ------------------------------------------------------------------
    # symbolic extraction
    # ------------------------------------------------------------------
    @staticmethod
    def extract_hex(question: str) -> Dict[str, List[str]]:
        """Classify hex literals into PCs and memory addresses."""
        pcs: List[str] = []
        addresses: List[str] = []
        labelled = {}
        for label, value in _LABELLED_HEX_RE.findall(question):
            labelled[value.lower()] = label.lower()
        for value in _HEX_RE.findall(question):
            value = value.lower()
            label = labelled.get(value, "")
            digits = len(value) - 2
            if label.startswith(("pc", "program")):
                target = pcs
            elif label.startswith(("addr",)):
                target = addresses
            elif digits <= 8:
                target = pcs
            else:
                target = addresses
            if value not in target:
                target.append(value)
        return {"pcs": pcs, "addresses": addresses}

    def extract_workloads(self, question: str) -> List[str]:
        lowered = question.lower()
        found = [name for name in self.known_workloads
                 if re.search(rf"\b{re.escape(name)}\b", lowered)]
        return found

    def extract_policies(self, question: str) -> List[str]:
        lowered = question.lower()
        found: List[str] = []
        for alias, canonical in POLICY_ALIASES.items():
            if re.search(rf"\b{re.escape(alias)}\b", lowered):
                if self.known_policies and canonical not in self.known_policies:
                    # Keep unknown policies too: trick questions may name them.
                    pass
                if canonical not in found:
                    found.append(canonical)
        return found

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def classify(self, question: str, intent: QueryIntent) -> str:
        lowered = question.lower()

        def has(*phrases: str) -> bool:
            return any(phrase in lowered for phrase in phrases)

        if has("write code", "generate code", "write python", "code to compute",
               "code that computes"):
            return CODE_GENERATION
        if has("hot and cold", "hot sets", "cold sets", "cache sets", "set hotness",
               "unique cache sets"):
            return SET_ANALYSIS
        if has("list all unique pcs", "list all pcs", "list the pcs",
               "unique pcs", "all pcs in"):
            return PC_LIST
        if has("how many", "count the", "number of times", "how often") and not has("why"):
            return COUNT
        if has("average", "mean ", "standard deviation", "variance", "sum of"):
            return ARITHMETIC
        if has("why does", "why is", "explain why") and (intent.pcs or intent.policies):
            if has("assembly", "source", "function", "semantic", "code context",
                   "examine the assembly", "program behavior", "program behaviour"):
                return SEMANTIC_ANALYSIS
            if len(intent.policies) >= 2 or has("outperform", "perform worse",
                                                "better than", "worse under"):
                return POLICY_ANALYSIS
            return SEMANTIC_ANALYSIS if intent.pcs and not intent.policies else POLICY_ANALYSIS
        if has("which workload", "across workloads", "workload has the",
               "workload characteristics", "compare the workloads"):
            return WORKLOAD_ANALYSIS
        if has("which policy", "which replacement policy", "lowest miss rate",
               "highest hit rate", "best policy", "rank the policies",
               "compare policies", "compare the policies") and (intent.pcs or intent.workloads):
            return POLICY_COMPARISON
        if has("miss rate", "hit rate") and (intent.pcs or intent.workloads):
            if len(intent.policies) >= 2:
                return POLICY_COMPARISON
            return MISS_RATE
        if has("cache hit or", "hit or miss", "result in a cache hit",
               "result in a hit", "hit or a miss", "does the access",
               "does the memory access"):
            return HIT_MISS
        if intent.pcs and intent.addresses:
            return HIT_MISS
        if has("cache size", "associativity", "number of sets", "number of ways",
               "#sets", "#ways", "what is a", "how does increasing", "explain the",
               "what translates", "offset", "index", "tag"):
            return CONCEPT
        if has("insight", "derive insights", "suggest ideas", "improve performance",
               "bypass", "prefetch"):
            return WORKLOAD_ANALYSIS if intent.workloads else GENERAL
        return GENERAL

    # ------------------------------------------------------------------
    def parse(self, question: str) -> QueryIntent:
        """Parse one question."""
        hex_values = self.extract_hex(question)
        intent = QueryIntent(
            question=question,
            pcs=hex_values["pcs"],
            addresses=hex_values["addresses"],
            workloads=self.extract_workloads(question),
            policies=self.extract_policies(question),
        )
        lowered = question.lower()
        if "standard deviation" in lowered or "variance" in lowered:
            intent.aggregation = "std"
        elif "average" in lowered or "mean" in lowered:
            intent.aggregation = "mean"
        elif "sum of" in lowered:
            intent.aggregation = "sum"
        elif "how many" in lowered or "count" in lowered:
            intent.aggregation = "count"

        if "evicted reuse distance" in lowered or "eviction reuse" in lowered:
            intent.target_field = "evicted_address_reuse_distance_numeric"
        elif "reuse distance" in lowered:
            intent.target_field = "accessed_address_reuse_distance_numeric"
        elif "recency" in lowered:
            intent.target_field = "accessed_address_recency_numeric"

        # Word boundaries keep "almost"/"utmost" from matching, and the
        # quantifier phrases "at least"/"at most" are not superlatives.
        superlatives = lowered.replace("at least", " ").replace("at most", " ")
        if re.search(r"\b(lowest|least|fewest)\b", superlatives):
            intent.comparison = "lowest"
        elif re.search(r"\b(highest|most|largest)\b", superlatives):
            intent.comparison = "highest"
        elif re.search(r"\bbest\b", superlatives):
            intent.comparison = "best"
        elif re.search(r"\bworst\b", superlatives):
            intent.comparison = "worst"

        # "cache set"/"cache sets" or the standalone word "sets"; the word
        # boundary keeps substrings like "offsets" or "onsets" from matching.
        intent.wants_sets = ("cache set" in lowered
                             or re.search(r"\bsets\b", lowered) is not None)
        intent.wants_hit_rate = (("hit rate" in lowered
                                  or re.search(r"\bhits\b", lowered) is not None)
                                 and "miss rate" not in lowered
                                 and re.search(r"\bmisses\b", lowered) is None)
        intent.wants_pc_list = "list" in lowered and "pc" in lowered

        intent.question_type = self.classify(question, intent)
        return intent
