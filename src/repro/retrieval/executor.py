"""Sandboxed execution of Ranger-generated retrieval code.

The generated code is plain Python that reads ``loaded_data`` and assigns a
string to ``result`` (and, for machine consumption, a ``payload`` dict).  It
is executed with a restricted builtin set — no imports, no file or attribute
tricks — which is both a safety measure and a faithful model of the narrow
API the paper's system prompt enforces ("No markdown, explanations, print, or
comments").
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from types import CodeType
from typing import Any, Dict, Optional

_ALLOWED_BUILTINS = {
    "abs": abs,
    "all": all,
    "any": any,
    "bool": bool,
    "dict": dict,
    "enumerate": enumerate,
    "float": float,
    "int": int,
    "len": len,
    "list": list,
    "max": max,
    "min": min,
    "range": range,
    "round": round,
    "set": set,
    "sorted": sorted,
    "str": str,
    "sum": sum,
    "tuple": tuple,
    "zip": zip,
    "isinstance": isinstance,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "Exception": Exception,
}

_FORBIDDEN_PATTERNS = (
    re.compile(r"\bimport\b"),
    re.compile(r"\bopen\s*\("),
    re.compile(r"__\w+__"),
    re.compile(r"\bexec\s*\("),
    re.compile(r"\beval\s*\("),
)

#: How many distinct code texts keep their compiled code.  A text is a pure
#: function of its question, so a served question compiles once.
COMPILED_CODE_LIMIT = 256


@lru_cache(maxsize=COMPILED_CODE_LIMIT)
def _compiled(code: str) -> CodeType:
    return compile(code, "<ranger-generated>", "exec")


@dataclass
class CodeExecutionResult:
    """Outcome of one sandboxed execution."""

    success: bool
    result: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    code: str = ""

    def describe(self) -> str:
        if self.success:
            return self.result
        return f"execution failed: {self.error}"


class SandboxExecutor:
    """Executes retrieval code against the ``loaded_data`` store."""

    def __init__(self, loaded_data: Dict[str, Dict[str, Any]],
                 extra_globals: Optional[Dict[str, Any]] = None):
        self.loaded_data = loaded_data
        self.extra_globals = dict(extra_globals or {})

    def validate(self, code: str) -> Optional[str]:
        """Return an error message if the code violates the output rules."""
        for pattern in _FORBIDDEN_PATTERNS:
            if pattern.search(code):
                return f"forbidden construct matched {pattern.pattern!r}"
        if "result" not in code:
            return "generated code never assigns `result`"
        return None

    def execute(self, code: str) -> CodeExecutionResult:
        """Run the code and capture ``result`` / ``payload``.

        Every call validates the code; a text compiles once while it stays
        among the last :data:`COMPILED_CODE_LIMIT` texts run.
        """
        violation = self.validate(code)
        if violation is not None:
            return CodeExecutionResult(success=False, error=violation, code=code)
        namespace: Dict[str, Any] = {
            "__builtins__": dict(_ALLOWED_BUILTINS),
            "loaded_data": self.loaded_data,
            "re": re,
            "math": math,
        }
        namespace.update(self.extra_globals)
        try:
            exec(_compiled(code), namespace)  # noqa: S102
        except Exception as error:  # noqa: BLE001 - report any failure upward
            return CodeExecutionResult(success=False, error=f"{type(error).__name__}: {error}",
                                       code=code)
        result = namespace.get("result")
        if not isinstance(result, str):
            return CodeExecutionResult(
                success=False,
                error="generated code must assign a string to `result`",
                code=code,
            )
        payload = namespace.get("payload")
        payload_dict = payload if isinstance(payload, dict) else {}
        return CodeExecutionResult(success=True, result=result,
                                   payload=payload_dict, code=code)
