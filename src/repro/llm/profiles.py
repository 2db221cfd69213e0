"""Capability profiles for the simulated LLM backends.

Each profile captures, as per-skill success probabilities, the failure modes
the paper reports for the corresponding OpenAI backend (section 6.1):

* every backend is good at direct lookups (hit/miss, miss rate) once the
  retrieved slice contains the fact;
* *counting* over a low-context window is brittle for everyone (the paper
  reports 0/5 across the board);
* *arithmetic* beyond a single rate is weak;
* only GPT-4o and GPT-4o-mini reliably reject false premises (trick
  questions);
* the reasoning categories (policy/workload/semantic analysis) favour the
  larger models;
* o3 is strong but inconsistent ("bimodal": excels or fails completely);
* the fine-tuned 4o-mini has better domain phrasing but hallucinates more on
  epistemic and semantic tasks.

The profiles steer *behavioural* error injection in
:class:`~repro.llm.simulated.SimulatedLLM`; accuracy numbers are never
hard-coded — they emerge from running CacheMindBench against the backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class CapabilityProfile:
    """Per-skill success probabilities and behavioural knobs of a backend."""

    name: str
    #: reading a single fact (hit/miss outcome, one rate) out of good context.
    lookup_accuracy: float = 0.85
    #: selecting/ranking across several retrieved statistics.
    comparison_skill: float = 0.6
    #: iterating an entire slice to count events without dropping filters.
    counting_discipline: float = 0.05
    #: multi-value numeric aggregation (averages over retrieved fields).
    arithmetic_precision: float = 0.2
    #: rejecting a false premise instead of guessing (trick questions).
    premise_rejection: float = 0.4
    #: textbook microarchitecture knowledge (retrieval-light questions).
    concept_knowledge: float = 0.6
    #: writing small, correct analysis code against a documented schema.
    code_generation: float = 0.7
    #: linking policy mechanics to observed per-PC effects (causal analysis).
    causal_reasoning: float = 0.6
    #: summarising whole-workload behaviour from many PC statistics.
    workload_synthesis: float = 0.6
    #: connecting trace events to source/assembly intent.
    semantic_linking: float = 0.5
    #: how strongly low-quality retrieval degrades the skills above
    #: (0 = immune, 1 = fully dependent on retrieval quality).
    context_dependence: float = 0.75
    #: probability of fabricating an answer when the evidence is missing
    #: instead of admitting the gap.
    hallucination_propensity: float = 0.4
    #: answer-to-answer consistency; low values yield bimodal rubric scores.
    consistency: float = 0.8
    #: stylistic fluency in the target domain (affects rubric "clarity").
    domain_fluency: float = 0.7

    def skill(self, skill_name: str) -> float:
        """Look up a skill value by name (raises on unknown skills)."""
        if not hasattr(self, skill_name):
            raise KeyError(f"unknown skill {skill_name!r}")
        value = getattr(self, skill_name)
        if not isinstance(value, (int, float)):
            raise KeyError(f"{skill_name!r} is not a numeric skill")
        return float(value)


#: Profiles for the five backends evaluated in the paper.
BACKEND_PROFILES: Dict[str, CapabilityProfile] = {
    "gpt-3.5-turbo": CapabilityProfile(
        name="gpt-3.5-turbo",
        lookup_accuracy=0.87,
        comparison_skill=0.47,
        counting_discipline=0.02,
        arithmetic_precision=0.10,
        premise_rejection=0.02,
        concept_knowledge=0.56,
        code_generation=0.92,
        causal_reasoning=0.56,
        workload_synthesis=0.48,
        semantic_linking=0.28,
        context_dependence=0.85,
        hallucination_propensity=0.75,
        consistency=0.75,
        domain_fluency=0.55,
    ),
    "o3": CapabilityProfile(
        name="o3",
        lookup_accuracy=0.87,
        comparison_skill=0.73,
        counting_discipline=0.03,
        arithmetic_precision=0.20,
        premise_rejection=0.20,
        concept_knowledge=0.52,
        code_generation=0.52,
        causal_reasoning=0.60,
        workload_synthesis=0.48,
        semantic_linking=0.40,
        context_dependence=0.80,
        hallucination_propensity=0.55,
        consistency=0.35,
        domain_fluency=0.65,
    ),
    "gpt-4o": CapabilityProfile(
        name="gpt-4o",
        lookup_accuracy=0.84,
        comparison_skill=0.60,
        counting_discipline=0.05,
        arithmetic_precision=0.30,
        premise_rejection=0.80,
        concept_knowledge=0.80,
        code_generation=0.99,
        causal_reasoning=0.84,
        workload_synthesis=0.88,
        semantic_linking=0.72,
        context_dependence=0.70,
        hallucination_propensity=0.20,
        consistency=0.90,
        domain_fluency=0.85,
    ),
    "gpt-4o-mini": CapabilityProfile(
        name="gpt-4o-mini",
        lookup_accuracy=0.84,
        comparison_skill=0.67,
        counting_discipline=0.04,
        arithmetic_precision=0.20,
        premise_rejection=0.80,
        concept_knowledge=0.76,
        code_generation=0.96,
        causal_reasoning=0.76,
        workload_synthesis=0.76,
        semantic_linking=0.76,
        context_dependence=0.75,
        hallucination_propensity=0.30,
        consistency=0.85,
        domain_fluency=0.75,
    ),
    "finetuned-4o-mini": CapabilityProfile(
        name="finetuned-4o-mini",
        lookup_accuracy=0.86,
        comparison_skill=0.47,
        counting_discipline=0.04,
        arithmetic_precision=0.20,
        premise_rejection=0.20,
        concept_knowledge=0.68,
        code_generation=0.68,
        causal_reasoning=0.72,
        workload_synthesis=0.68,
        semantic_linking=0.48,
        context_dependence=0.80,
        hallucination_propensity=0.65,
        consistency=0.75,
        domain_fluency=0.90,
    ),
}

#: Canonical ordering used when reporting results (matches Figure 4's legend).
BACKEND_ORDER: List[str] = [
    "gpt-3.5-turbo",
    "o3",
    "gpt-4o",
    "gpt-4o-mini",
    "finetuned-4o-mini",
]


def available_backends() -> List[str]:
    """Backend names in the paper's reporting order."""
    return list(BACKEND_ORDER)


def get_profile(name: str) -> CapabilityProfile:
    """Look up a backend profile by name."""
    if name not in BACKEND_PROFILES:
        raise KeyError(
            f"unknown backend {name!r}; available: {available_backends()}")
    return BACKEND_PROFILES[name]
