"""Query construction: the fluent Pipeline and the mini query language."""

from .language import CompiledQuery, compile_query
from .parser import compile_expression, tokenize
from .pipeline import Pipeline, PipelineStream

__all__ = [
    "CompiledQuery",
    "Pipeline",
    "PipelineStream",
    "compile_expression",
    "compile_query",
    "tokenize",
]
